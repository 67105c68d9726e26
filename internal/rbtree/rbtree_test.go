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

// checkFreeList walks the node free list: every node on it must be
// zeroed (a recycled node retains no key, value or left child) and
// there must be exactly want of them.
func checkFreeList(t *testing.T, tr *Tree[int, int], want int) {
	t.Helper()
	n := 0
	for f := tr.free; f != nil; f = f.right {
		if f.key != 0 || f.val != 0 || f.left != nil {
			t.Fatalf("free node %d not zeroed: key=%d val=%d left=%p", n, f.key, f.val, f.left)
		}
		if n++; n > want {
			t.Fatalf("free list holds more than %d nodes (or cycles)", want)
		}
	}
	if n != want {
		t.Fatalf("free list holds %d nodes, want %d", n, want)
	}
}

// TestTakeAgainstMap drives random Put/Take/Delete sequences against a
// map oracle. After every op: Take returned what the oracle held, the
// red-black invariants hold, Len matches, and the free list holds
// exactly the nodes the tree has shed — Put allocates only when the
// list is empty, so that is the high-water size minus the live size.
func TestTakeAgainstMap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := 1 + rng.Intn(1<<uint(2+seed)) // spaces of up to 8 … 1 024 keys: takes hit often in the small ones
		tr := New[int, int](intLess)
		ref := map[int]int{}
		highWater := 0
		for op := 0; op < 4000; op++ {
			k := rng.Intn(keys)
			switch rng.Intn(4) {
			case 0, 1:
				v := 1 + rng.Int() // never the zero value a miss returns
				tr.Put(k, v)
				ref[k] = v
			case 2:
				gv, gok := tr.Take(k)
				wv, wok := ref[k]
				if gok != wok || gv != wv {
					t.Fatalf("seed %d op %d: Take(%d) = %d,%v; want %d,%v", seed, op, k, gv, gok, wv, wok)
				}
				delete(ref, k)
			case 3:
				_, want := ref[k]
				if got := tr.Delete(k); got != want {
					t.Fatalf("seed %d op %d: Delete(%d) = %v, want %v", seed, op, k, got, want)
				}
				delete(ref, k)
			}
			if _, ok := tr.Get(k); ok != (ref[k] != 0) {
				t.Fatalf("seed %d op %d: key %d present = %v after the op", seed, op, k, ok)
			}
			if tr.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len = %d, want %d", seed, op, tr.Len(), len(ref))
			}
			if _, ok := checkInvariants(tr.root); !ok || isRed(tr.root) {
				t.Fatalf("seed %d op %d: red-black invariants violated", seed, op)
			}
			if len(ref) > highWater {
				highWater = len(ref)
			}
			checkFreeList(t, tr, highWater-len(ref))
		}
		got := tr.Keys()
		if len(got) != len(ref) || !sort.IntsAreSorted(got) {
			t.Fatalf("seed %d: final keys %v do not match the oracle's %d", seed, got, len(ref))
		}
		for _, k := range got {
			if v, _ := tr.Get(k); v != ref[k] {
				t.Fatalf("seed %d: Get(%d) = %d, want %d", seed, k, v, ref[k])
			}
		}
	}
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

// Min returns the smallest key and its value; ok is false when empty.
func (t *Tree[K, V]) Min() (key K, val V, ok bool) {
	if t.root == nil {
		return key, val, false
	}
	n := min(t.root)
	return n.key, n.val, true
}

// Max returns the largest key and its value; ok is false when empty.
func (t *Tree[K, V]) Max() (key K, val V, ok bool) {
	if t.root == nil {
		return key, val, false
	}
	n := t.root
	for n.right != nil {
		n = n.right
	}
	return n.key, n.val, true
}
