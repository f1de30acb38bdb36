package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one topk-serve process on a loopback port, owned by the run
// that started it. stop kills it and waits for it on every exit path.
type child struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
}

// bootTime is one start-up of topk-serve, from exec to the first
// healthy /healthz answer: the wall time, and the CPU time the child
// spent in it.
type bootTime struct {
	wall, cpu float64 // seconds
}

// startChild starts bin with args on a free loopback port and waits
// until /healthz answers, returning the child and its boot time. conns
// caps the connections the benchmark opens to it.
func startChild(ctx context.Context, bin string, args []string, logPath string, conns int) (*child, bootTime, error) {
	port, err := freePort()
	if err != nil {
		return nil, bootTime{}, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, bootTime{}, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, bootTime{}, fmt.Errorf("starting topk-serve: %w", err)
	}
	c := &child{
		cmd:  cmd,
		base: fmt.Sprintf("http://127.0.0.1:%d", port),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		exited: make(chan struct{}),
	}
	go func() {
		cmd.Wait()
		close(c.exited)
	}()
	for {
		if err := c.healthy(); err == nil {
			wall := time.Since(t0).Seconds()
			cpu, err := c.cpuSeconds()
			if err != nil {
				c.stop()
				return nil, bootTime{}, fmt.Errorf("reading the boot's CPU time: %w", err)
			}
			return c, bootTime{wall: wall, cpu: cpu}, nil
		}
		select {
		case <-ctx.Done():
			c.stop()
			return nil, bootTime{}, ctx.Err()
		case <-c.exited:
			return nil, bootTime{}, fmt.Errorf("topk-serve exited during start-up (log: %s)", logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(t0) > time.Minute {
			c.stop()
			return nil, bootTime{}, errors.New("topk-serve not healthy after 1m")
		}
	}
}

func (c *child) healthy() error {
	resp, err := c.client.Get(c.base + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// stop kills the child and waits until it has exited. It is safe to
// call more than once.
func (c *child) stop() {
	if c == nil {
		return
	}
	c.cmd.Process.Kill()
	<-c.exited
	c.client.CloseIdleConnections()
}

// alive reports whether the child is still running.
func (c *child) alive() bool {
	select {
	case <-c.exited:
		return false
	default:
		return true
	}
}

// post sends body to path and returns the status code and response
// body. A transport error returns code 0.
func (c *child) post(path, contentType string, body []byte) (int, []byte, error) {
	resp, err := c.client.Post(c.base+path, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// metrics scrapes /metrics and parses it.
func (c *child) metrics() (promSample, error) {
	resp, err := c.client.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return parseProm(string(b)), nil
}

// peakRSSMB reads the child's high-water resident set (VmHWM) in MiB.
func (c *child) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuTicks reads the machine's total and stolen CPU time from
// /proc/stat, in clock ticks. Steal is time the hypervisor ran another
// tenant on this machine's CPUs; it slows every timed metric.
func cpuTicks() (total, steal int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("no cpu line in /proc/stat")
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		if i < 8 { // user … steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// cpuSeconds reads the CPU time the child's threads have run, from
// each thread's /proc schedstat, in nanoseconds. The kernel leaves out
// the time the hypervisor gave to other tenants (steal), so on a shared
// machine this moves with the child's own work, where wall time moves
// with the neighbours too.
func (c *child) cpuSeconds() (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", c.cmd.Process.Pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d", c.cmd.Process.Pid)
	}
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited after the listing
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s", t)
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// promSample is a parsed Prometheus exposition. Each sample is summed
// under its bare metric name, under name{phase=…} and under
// name{shard=…}, which is every grouping the benchmark reads.
type promSample map[string]float64

func parseProm(text string) promSample {
	out := make(promSample)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i+1:len(name)-1]
		}
		out[name] += v
		for _, kv := range strings.Split(labels, ",") {
			k, val, ok := strings.Cut(kv, "=")
			if ok && (k == "phase" || k == "shard") {
				out[name+"{"+k+"="+strings.Trim(val, `"`)+"}"] += v
			}
		}
	}
	return out
}

// sub returns the per-key difference p - before.
func (p promSample) sub(before promSample) promSample {
	out := make(promSample, len(p))
	for k, v := range p {
		out[k] = v - before[k]
	}
	return out
}
