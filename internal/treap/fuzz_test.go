package treap

import (
	"math"
	"slices"
	"testing"
)

// FuzzTreapOps drives random op sequences against a map oracle and the
// structural invariant checker. The first byte sizes a prefix of keys
// bulk-loaded with Build; each following byte triple encodes one
// operation.
func FuzzTreapOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 1, 1, 2, 2, 1, 2})
	f.Add([]byte{0, 0, 5, 5, 0, 5, 6, 1, 5, 5})
	f.Add([]byte{32, 1, 3, 3, 0, 3, 9, 2, 3, 9, 1, 7, 21})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		oracle := map[Key]int{}
		var keys []Key
		if len(data) > 0 {
			// Keys (j%8, j) for j < p are distinct, tie on K, and lie in
			// the key space the ops below draw from.
			for j := 0; j < int(data[0])%33; j++ {
				k := Key{K: float64(j % 8), W: float64(j)}
				keys = append(keys, k)
				oracle[k] = -1
			}
			data = data[1:]
		}
		slices.SortFunc(keys, Key.Compare)
		vals := make([]int, len(keys))
		for j := range vals {
			vals[j] = -1
		}
		tr := new(Tree[int])
		*tr = Build(keys, vals)
		for i := 0; i+2 < len(data); i += 3 {
			op, kb, wb := data[i]%3, data[i+1]%32, data[i+2]%32
			k := Key{K: float64(kb), W: float64(wb)}
			switch op {
			case 0:
				tr.Insert(k, i)
				oracle[k] = i
			case 1:
				got := tr.Delete(k)
				_, want := oracle[k]
				if got != want {
					t.Fatalf("Delete(%v) = %v, oracle %v", k, got, want)
				}
				delete(oracle, k)
			case 2:
				got, ok := tr.Get(k)
				want, wok := oracle[k]
				if ok != wok || (ok && got != want) {
					t.Fatalf("Get(%v) = (%v,%v), oracle (%v,%v)", k, got, ok, want, wok)
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != len(oracle) {
			t.Fatalf("Len=%d oracle=%d", tr.Len(), len(oracle))
		}
		// Cross-check one aggregate per sequence.
		wantMax := math.Inf(-1)
		for k := range oracle {
			if k.W > wantMax {
				wantMax = k.W
			}
		}
		gotMax, ok := tr.MaxWeight()
		if (len(oracle) > 0) != ok || (ok && gotMax != wantMax) {
			t.Fatalf("MaxWeight = (%v,%v), want (%v,%v)", gotMax, ok, wantMax, len(oracle) > 0)
		}
	})
}

func TestInvariantsAfterHeavyChurn(t *testing.T) {
	tr := &Tree[int]{}
	for i := 0; i < 5000; i++ {
		tr.Insert(Key{K: float64(i % 97), W: float64(i)}, i)
		if i%3 == 0 {
			tr.Delete(Key{K: float64((i / 2) % 97), W: float64(i / 2)})
		}
		if i%512 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d ops: %v", i, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
