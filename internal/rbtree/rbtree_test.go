package rbtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intLess(a, b int) bool { return a < b }

func TestEmptyTree(t *testing.T) {
	tr := New[int, string](intLess)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tr.Len())
	}
	if _, ok := tr.Get(1); ok {
		t.Error("Get on empty tree returned ok")
	}
	if tr.Delete(1) {
		t.Error("Delete on empty tree returned true")
	}
	if _, _, ok := tr.Min(); ok {
		t.Error("Min on empty tree returned ok")
	}
	if _, _, ok := tr.Max(); ok {
		t.Error("Max on empty tree returned ok")
	}
}

func TestPutGetReplace(t *testing.T) {
	tr := New[int, string](intLess)
	tr.Put(1, "a")
	tr.Put(2, "b")
	tr.Put(1, "c") // replace
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	if v, ok := tr.Get(1); !ok || v != "c" {
		t.Errorf("Get(1) = %q,%v; want c,true", v, ok)
	}
	if v, ok := tr.Get(2); !ok || v != "b" {
		t.Errorf("Get(2) = %q,%v; want b,true", v, ok)
	}
}

func TestDelete(t *testing.T) {
	tr := New[int, int](intLess)
	for i := 0; i < 100; i++ {
		tr.Put(i, i*10)
	}
	for i := 0; i < 100; i += 2 {
		if !tr.Delete(i) {
			t.Fatalf("Delete(%d) = false", i)
		}
	}
	if tr.Len() != 50 {
		t.Fatalf("Len = %d, want 50", tr.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := tr.Get(i)
		if i%2 == 0 && ok {
			t.Errorf("deleted key %d still present", i)
		}
		if i%2 == 1 && (!ok || v != i*10) {
			t.Errorf("Get(%d) = %d,%v; want %d,true", i, v, ok, i*10)
		}
	}
}

func TestMinMax(t *testing.T) {
	tr := New[int, int](intLess)
	for _, k := range []int{42, 7, 99, 1, 63} {
		tr.Put(k, k)
	}
	if k, _, _ := tr.Min(); k != 1 {
		t.Errorf("Min = %d, want 1", k)
	}
	if k, _, _ := tr.Max(); k != 99 {
		t.Errorf("Max = %d, want 99", k)
	}
}

func TestAscendOrder(t *testing.T) {
	tr := New[int, int](intLess)
	rng := rand.New(rand.NewSource(1))
	want := map[int]bool{}
	for i := 0; i < 500; i++ {
		k := rng.Intn(1000)
		tr.Put(k, k)
		want[k] = true
	}
	keys := tr.Keys()
	if len(keys) != len(want) {
		t.Fatalf("Keys len = %d, want %d", len(keys), len(want))
	}
	if !sort.IntsAreSorted(keys) {
		t.Error("Keys not sorted")
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New[int, int](intLess)
	for i := 0; i < 10; i++ {
		tr.Put(i, i)
	}
	var seen []int
	tr.Ascend(func(k, _ int) bool {
		seen = append(seen, k)
		return k < 4
	})
	if len(seen) != 5 {
		t.Errorf("visited %v, want 5 entries (stop after k=4)", seen)
	}
}

// TestRandomOpsAgainstMap cross-checks a long random op sequence against
// the built-in map plus sort.
func TestRandomOpsAgainstMap(t *testing.T) {
	tr := New[int, int](intLess)
	ref := map[int]int{}
	rng := rand.New(rand.NewSource(99))
	for op := 0; op < 20000; op++ {
		k := rng.Intn(300)
		switch rng.Intn(3) {
		case 0:
			v := rng.Int()
			tr.Put(k, v)
			ref[k] = v
		case 1:
			got := tr.Delete(k)
			_, want := ref[k]
			if got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", op, k, got, want)
			}
			delete(ref, k)
		case 2:
			gv, gok := tr.Get(k)
			wv, wok := ref[k]
			if gok != wok || (gok && gv != wv) {
				t.Fatalf("op %d: Get(%d) = %d,%v; want %d,%v", op, k, gv, gok, wv, wok)
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, tr.Len(), len(ref))
		}
	}
	keys := tr.Keys()
	if !sort.IntsAreSorted(keys) {
		t.Fatal("final keys not sorted")
	}
}

// TestRBInvariants checks the red-black invariants hold after random
// insert/delete workloads: no red node has a red left child chain
// violation and every root-to-leaf path has the same black height.
func TestRBInvariants(t *testing.T) {
	tr := New[int, int](intLess)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		tr.Put(rng.Intn(2000), i)
		if i%3 == 0 {
			tr.Delete(rng.Intn(2000))
		}
	}
	if _, ok := checkInvariants(tr.root); !ok {
		t.Fatal("red-black invariants violated")
	}
	if isRed(tr.root) {
		t.Fatal("root is red")
	}
}

// checkInvariants returns (blackHeight, ok).
func checkInvariants[K any, V any](n *node[K, V]) (int, bool) {
	if n == nil {
		return 1, true
	}
	if isRed(n) && (isRed(n.left) || isRed(n.right)) {
		return 0, false // red node with red child
	}
	if isRed(n.right) {
		return 0, false // LLRB: right links must be black
	}
	lh, lok := checkInvariants(n.left)
	rh, rok := checkInvariants(n.right)
	if !lok || !rok || lh != rh {
		return 0, false
	}
	if !isRed(n) {
		lh++
	}
	return lh, true
}

// Property: inserting any key set then iterating yields the sorted
// deduplicated keys.
func TestPropertyKeysSorted(t *testing.T) {
	f := func(keys []int16) bool {
		tr := New[int, bool](intLess)
		set := map[int]bool{}
		for _, k := range keys {
			tr.Put(int(k), true)
			set[int(k)] = true
		}
		got := tr.Keys()
		if len(got) != len(set) {
			return false
		}
		return sort.IntsAreSorted(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTreePut(b *testing.B) {
	tr := New[int, int](intLess)
	for i := 0; i < b.N; i++ {
		tr.Put(i&0xffff, i)
	}
}

func BenchmarkTreeGet(b *testing.B) {
	tr := New[int, int](intLess)
	for i := 0; i < 1<<16; i++ {
		tr.Put(i, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(i & 0xffff)
	}
}

// Ascend calls fn on every entry in key order until fn returns false.
func (t *Tree[K, V]) Ascend(fn func(key K, val V) bool) {
	ascend(t.root, fn)
}

func ascend[K any, V any](n *node[K, V], fn func(K, V) bool) bool {
	if n == nil {
		return true
	}
	if !ascend(n.left, fn) {
		return false
	}
	if !fn(n.key, n.val) {
		return false
	}
	return ascend(n.right, fn)
}

// Keys returns all keys in ascending order.
func (t *Tree[K, V]) Keys() []K {
	out := make([]K, 0, t.size)
	t.Ascend(func(k K, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}
