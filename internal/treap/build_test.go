package treap

import (
	"fmt"
	"slices"
	"testing"

	"topk/internal/wrand"
)

// sameNodes compares two subtrees node for node: key, value, priority,
// both augmentations, and shape.
func sameNodes[V comparable](a, b *node[V]) error {
	if a == nil || b == nil {
		if a != b {
			return fmt.Errorf("shape differs: %v vs %v", a, b)
		}
		return nil
	}
	if a.key != b.key || a.val != b.val || a.prio != b.prio || a.size != b.size || a.maxW != b.maxW {
		return fmt.Errorf("node differs: %+v vs %+v", *a, *b)
	}
	if err := sameNodes(a.left, b.left); err != nil {
		return err
	}
	return sameNodes(a.right, b.right)
}

// TestBuildMatchesInsert: Build over sorted keys yields the tree that
// Inserting the same keys in any order does, node for node, including
// when many keys share K and differ only in W.
func TestBuildMatchesInsert(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 1000, 50000} {
		for _, tiedK := range []bool{false, true} {
			g := wrand.New(uint64(n) + 1)
			ws := g.UniqueFloats(n, 1e6)
			keys := make([]Key, n)
			for i := range keys {
				k := g.Float64() * 100
				if tiedK {
					k = float64(g.IntN(n/8 + 1))
				}
				keys[i] = Key{K: k, W: ws[i]}
			}
			inc := &Tree[int]{}
			for _, i := range g.Perm(n) {
				inc.Insert(keys[i], int(keys[i].W))
			}
			slices.SortFunc(keys, Key.Compare)
			vals := make([]int, n)
			for i, k := range keys {
				vals[i] = int(k.W)
			}
			built := Build(keys, vals)
			if err := built.CheckInvariants(); err != nil {
				t.Fatalf("n=%d tiedK=%v: %v", n, tiedK, err)
			}
			if err := sameNodes(built.root, inc.root); err != nil {
				t.Fatalf("n=%d tiedK=%v: %v", n, tiedK, err)
			}
		}
	}
}

func TestBuildRejectsUnsortedKeys(t *testing.T) {
	for name, keys := range map[string][]Key{
		"descending": {{K: 2, W: 1}, {K: 1, W: 2}},
		"duplicate":  {{K: 1, W: 1}, {K: 1, W: 1}},
		"tie order":  {{K: 1, W: 2}, {K: 1, W: 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Build did not panic", name)
				}
			}()
			Build(keys, make([]int, len(keys)))
		}()
	}
}

// TestBuildThenUpdate: a bulk-built tree takes Inserts and Deletes like
// any other and keeps its invariants.
func TestBuildThenUpdate(t *testing.T) {
	g := wrand.New(5)
	keys := make([]Key, 2000)
	for i := range keys {
		keys[i] = Key{K: float64(i / 4), W: float64(i)}
	}
	tr := Build(keys, make([]int, len(keys)))
	for i := 0; i < 4000; i++ {
		k := Key{K: float64(g.IntN(600)), W: float64(g.IntN(3000))}
		if g.Bernoulli(0.5) {
			tr.Insert(k, i)
		} else {
			tr.Delete(k)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
