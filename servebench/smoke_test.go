package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// buildServe builds topk-serve from the enclosing tree into dir.
func buildServe(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "topk-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/topk-serve")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building topk-serve: %v\n%s", err, out)
	}
	return bin
}

// reportLines maps each "name value unit" line of a report to its value
// and unit fields.
func reportLines(out string) map[string][2]string {
	m := make(map[string][2]string)
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 3 && !strings.HasPrefix(line, "#") {
			m[f[0]] = [2]string{f[1], f[2]}
		}
	}
	return m
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload briefly on a small index, untraced and
// traced, and checks that each prints every metric with its unit, writes
// its spans, and sees no error.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts topk-serve processes")
	}
	dir := t.TempDir()
	bin := buildServe(t, dir)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			cfg := config{w: w, n: 4096, seed: 3, seconds: 1, trace: trace, server: bin, work: dir, out: &out}
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, trace, err, out.String())
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(names(defs), " ") {
				t.Errorf("%s trace=%v: result metrics %v, want %v", w.name, trace, got, names(defs))
			}
			lines := reportLines(out.String())
			for _, d := range append(append([]metricDef(nil), defs...), perLayer[:7]...) {
				if l, ok := lines[d.Name]; !ok || l[1] != d.Unit {
					t.Errorf("%s trace=%v: report line for %s = %v, want unit %s", w.name, trace, d.Name, l, d.Unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || lines["error_rate"][0] != "0" {
				t.Errorf("%s trace=%v: correct %v attempted %d failed %d error_rate %s\n%s", w.name, trace,
					res.Correct, res.Attempted, res.Failed, lines["error_rate"][0], out.String())
			}
			if trace {
				if fi, err := os.Stat(filepath.Join(dir, "spans", w.name+".jsonl")); err != nil || fi.Size() == 0 {
					t.Errorf("%s: span file: %v", w.name, err)
				}
			}
		}
	}
	// Every run removes its temporary index directories.
	if ents, _ := os.ReadDir(filepath.Join(dir, "tmp")); len(ents) != 0 {
		t.Errorf("temporary directories left behind: %v", ents)
	}
}
