package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children cover [10, 60) once: 50.
		{ID: 2, Parent: 1, Op: 1, Name: "child", Start: 10, End: 50},
		{ID: 3, Parent: 1, Op: 1, Name: "child", Start: 30, End: 60},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Op: 1, Name: "late", Start: 90, End: 120},
	}
	got := make(map[string]selfStat)
	for _, st := range selfTimes(spans) {
		got[st.Name] = st
	}
	want := map[string]time.Duration{"root": 40, "child": 70, "late": 30}
	for name, self := range want {
		if got[name].Self != self {
			t.Errorf("%s self = %v, want %v", name, got[name].Self, self)
		}
	}
	if got["child"].Count != 2 || got["root"].Total != 100 {
		t.Errorf("child count %d, root total %v; want 2, 100ns", got["child"].Count, got["root"].Total)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	s := tr.start("serve.query", 0, 0)
	if d := tr.end(s); d < 0 || s.id != 0 {
		t.Fatalf("untraced span: id %d, duration %v", s.id, d)
	}
	live := newTracer()
	root := live.start("bench.query", 0, 0)
	kid := live.start("serve.query", root.id, root.op)
	live.end(kid)
	live.end(root)
	got := live.sorted()
	if len(got) != 2 || got[0].Op != root.id || got[1].Op != root.id || got[1].Parent != root.id {
		t.Fatalf("spans %+v: want both in op %d, serve.query under bench.query", got, root.id)
	}
}
