package em

import (
	"sync"
	"testing"
)

func TestQueryViewIsolationAndMerge(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	id := tr.Alloc()
	tr.ResetCounters()
	tr.DropCache()

	v := tr.BeginQuery()
	v.Read(id)
	v.Read(id) // second touch hits the view's private cache
	v.ScanCost(tr.B())
	if got := tr.Stats(); got.Reads != 0 || got.Hits != 0 {
		t.Fatalf("in-flight view leaked into tracker stats: %+v", got)
	}
	st := v.End()
	if st.Reads != 2 || st.Hits != 1 || st.Writes != 0 {
		t.Fatalf("view stats = %+v, want Reads=2 Hits=1 Writes=0", st)
	}
	if got := tr.Stats(); got.Reads != 2 || got.Hits != 1 {
		t.Fatalf("merged tracker stats = %+v, want Reads=2 Hits=1", got)
	}
	if again := v.End(); again != st {
		t.Fatalf("second End returned %+v, want %+v", again, st)
	}
}

func TestQueryViewStartsCold(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	id := tr.Alloc()
	tr.ResetCounters()

	// The shared cache is warm (Alloc touched id), but a view must not be.
	v := tr.BeginQuery()
	v.Read(id)
	if st := v.End(); st.Reads != 1 || st.Hits != 0 {
		t.Fatalf("view stats = %+v, want one cold read", st)
	}
	// The shared path still sees its warm cache.
	tr.ResetCounters()
	tr.Read(id)
	if got := tr.Stats(); got.Hits != 1 || got.Reads != 0 {
		t.Fatalf("shared stats = %+v, want one hit", got)
	}
}

// TestQueryViewChargedFromAnotherGoroutine pins the explicit handle: a
// view collects the charges made on it whichever goroutine makes them,
// and a concurrent tr.Read lands on the shared counters, not the view.
func TestQueryViewChargedFromAnotherGoroutine(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	a, b := tr.Alloc(), tr.Alloc()
	tr.ResetCounters()
	tr.DropCache()

	v := tr.BeginQuery()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		v.Read(a)
		v.Read(a)
		v.PathCost(1)
	}()
	go func() {
		defer wg.Done()
		tr.Read(b)
	}()
	wg.Wait()
	st := v.End()
	if st.Reads != 2 || st.Hits != 1 {
		t.Fatalf("view stats = %+v, want Reads=2 Hits=1", st)
	}
	if got := tr.Stats(); got.Reads != 1+st.Reads || got.Hits != st.Hits {
		t.Fatalf("tracker stats = %+v, want the shared read plus the view's %+v", got, st)
	}
}

func TestQueryViewDeterministicUnderConcurrency(t *testing.T) {
	tr := NewTracker(Config{B: 8, MemBlocks: 2})
	base := tr.AllocRun(16)
	tr.ResetCounters()

	query := func() Stats {
		v := tr.BeginQuery()
		for i := 0; i < 16; i++ {
			v.Read(base + BlockID(i%4))
		}
		v.PathCost(9)
		v.ScanCost(20)
		return v.End()
	}

	want := query()
	const workers = 8
	got := make([]Stats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = query()
		}(w)
	}
	wg.Wait()
	sum := Stats{}
	for w, st := range got {
		if st.Reads != want.Reads || st.Writes != want.Writes || st.Hits != want.Hits {
			t.Fatalf("worker %d stats %+v differ from serial %+v", w, st, want)
		}
		sum.Reads += st.Reads
		sum.Writes += st.Writes
		sum.Hits += st.Hits
	}
	total := tr.Stats()
	if total.Reads != sum.Reads+want.Reads || total.Hits != sum.Hits+want.Hits {
		t.Fatalf("merged totals %+v != sum of per-query deltas %+v (+ serial %+v)", total, sum, want)
	}
}

// TestViewsOnOneGoroutineStayIndependent: two views open at once on one
// goroutine each keep their own cold cache and counters.
func TestViewsOnOneGoroutineStayIndependent(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	id := tr.Alloc()
	tr.ResetCounters()

	v1, v2 := tr.BeginQuery(), tr.BeginQuery()
	v1.Read(id)
	v1.Read(id)
	v2.Read(id)
	v2.ScanCost(3 * tr.B())
	st1, st2 := v1.End(), v2.End()
	if st1.Reads != 1 || st1.Hits != 1 {
		t.Fatalf("first view stats = %+v, want Reads=1 Hits=1", st1)
	}
	if st2.Reads != 4 || st2.Hits != 0 {
		t.Fatalf("second view stats = %+v, want Reads=4 Hits=0", st2)
	}
	if got := tr.Stats(); got.Reads != 5 || got.Hits != 1 {
		t.Fatalf("merged tracker stats = %+v, want Reads=5 Hits=1", got)
	}
}

func TestAllocPanicsInsideView(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	v := tr.BeginQuery()
	defer v.End()
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc inside a query view did not panic")
		}
	}()
	tr.Alloc()
}

// TestAllocAllowedAfterViewsEnd: the mutation guard counts open views,
// so it lifts once the last one ends.
func TestAllocAllowedAfterViewsEnd(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	v1, v2 := tr.BeginQuery(), tr.BeginQuery()
	v1.End()
	v1.End() // a second End must not release the guard twice
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Alloc with one view still open did not panic")
			}
		}()
		tr.Alloc()
	}()
	v2.End()
	tr.Alloc()
}

// TestSnapshotCostAllowedInsideView: a snapshot may be taken beside live
// queries, so SnapshotCost is exempt from the mutation guard.
func TestSnapshotCostAllowedInsideView(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	v := tr.BeginQuery()
	defer v.End()
	tr.SnapshotCost(8 * int64(tr.B()))
	if got := tr.Stats(); got.Writes != 1 {
		t.Fatalf("snapshot charged %+v, want one write", got)
	}
}
