// Package rbtree implements a generic left-leaning red-black tree.
//
// The XFM backend (§6 of the paper) keeps "an internal red-black tree to
// find the associated physical address of the compressed page entry" on
// every swap-in. This package provides that index: an ordered map from
// page identifiers to SFM entries with O(log n) insert, delete, lookup,
// and in-order iteration (used by compaction).
package rbtree

// Tree is an ordered map keyed by K. The zero value is not usable; use
// New. Tree is not safe for concurrent use.
type Tree[K any, V any] struct {
	root *node[K, V]
	size int
	less func(a, b K) bool
	// free chains nodes released by Delete (via their right pointers)
	// for reuse by Put. The index of a swap backend sees one Put and
	// one Delete per page round trip, so recycling nodes makes the
	// steady-state batch path allocation-free; the list is bounded by
	// the tree's high-water size. Keys and values are zeroed on
	// release so recycled nodes retain no references.
	free *node[K, V]
}

type node[K any, V any] struct {
	key         K
	val         V
	left, right *node[K, V]
	red         bool
}

// New returns an empty tree ordered by less.
func New[K any, V any](less func(a, b K) bool) *Tree[K, V] {
	return &Tree[K, V]{less: less}
}

// Len returns the number of entries.
func (t *Tree[K, V]) Len() int { return t.size }

// Get returns the value stored under key and whether it exists.
func (t *Tree[K, V]) Get(key K) (V, bool) {
	n := t.root
	for n != nil {
		switch {
		case t.less(key, n.key):
			n = n.left
		case t.less(n.key, key):
			n = n.right
		default:
			return n.val, true
		}
	}
	var zero V
	return zero, false
}

// Put inserts or replaces the value under key.
func (t *Tree[K, V]) Put(key K, val V) {
	var inserted bool
	t.root, inserted = t.put(t.root, key, val)
	t.root.red = false
	if inserted {
		t.size++
	}
}

// newNode takes a node off the free list (or allocates) and
// initializes it as a fresh red leaf.
func (t *Tree[K, V]) newNode(key K, val V) *node[K, V] {
	n := t.free
	if n == nil {
		return &node[K, V]{key: key, val: val, red: true}
	}
	t.free = n.right
	n.key, n.val = key, val
	n.left, n.right = nil, nil
	n.red = true
	return n
}

// recycle zeroes a detached node and pushes it onto the free list.
func (t *Tree[K, V]) recycle(n *node[K, V]) {
	var zk K
	var zv V
	n.key, n.val = zk, zv
	n.left = nil
	n.right = t.free
	t.free = n
}

func (t *Tree[K, V]) put(n *node[K, V], key K, val V) (*node[K, V], bool) {
	if n == nil {
		return t.newNode(key, val), true
	}
	var inserted bool
	switch {
	case t.less(key, n.key):
		n.left, inserted = t.put(n.left, key, val)
	case t.less(n.key, key):
		n.right, inserted = t.put(n.right, key, val)
	default:
		n.val = val
	}
	return fixUp(n), inserted
}

// Delete removes key and reports whether it was present.
func (t *Tree[K, V]) Delete(key K) bool {
	_, ok := t.Take(key)
	return ok
}

// Take removes key and returns the value it held: a Get and a Delete
// in the two descents Delete alone needs (the LLRB delete restructures
// on the way down, so it must know the key is there before it starts).
func (t *Tree[K, V]) Take(key K) (V, bool) {
	val, ok := t.Get(key)
	if !ok {
		return val, false
	}
	t.root = t.delete(t.root, key)
	if t.root != nil {
		t.root.red = false
	}
	t.size--
	return val, true
}

func (t *Tree[K, V]) delete(n *node[K, V], key K) *node[K, V] {
	if t.less(key, n.key) {
		if !isRed(n.left) && n.left != nil && !isRed(n.left.left) {
			n = moveRedLeft(n)
		}
		n.left = t.delete(n.left, key)
	} else {
		if isRed(n.left) {
			n = rotateRight(n)
		}
		if !t.less(n.key, key) && !t.less(key, n.key) && n.right == nil {
			t.recycle(n)
			return nil
		}
		if !isRed(n.right) && n.right != nil && !isRed(n.right.left) {
			n = moveRedRight(n)
		}
		if !t.less(n.key, key) && !t.less(key, n.key) {
			m := min(n.right)
			n.key, n.val = m.key, m.val
			n.right = t.deleteMin(n.right)
		} else {
			n.right = t.delete(n.right, key)
		}
	}
	return fixUp(n)
}

func (t *Tree[K, V]) deleteMin(n *node[K, V]) *node[K, V] {
	if n.left == nil {
		// An LLRB node with no left child has no right child either
		// (a red right link is forbidden, a black one would break the
		// black height), so n detaches whole.
		t.recycle(n)
		return nil
	}
	if !isRed(n.left) && !isRed(n.left.left) {
		n = moveRedLeft(n)
	}
	n.left = t.deleteMin(n.left)
	return fixUp(n)
}

func min[K any, V any](n *node[K, V]) *node[K, V] {
	for n.left != nil {
		n = n.left
	}
	return n
}

func isRed[K any, V any](n *node[K, V]) bool { return n != nil && n.red }

func rotateLeft[K any, V any](n *node[K, V]) *node[K, V] {
	x := n.right
	n.right = x.left
	x.left = n
	x.red = n.red
	n.red = true
	return x
}

func rotateRight[K any, V any](n *node[K, V]) *node[K, V] {
	x := n.left
	n.left = x.right
	x.right = n
	x.red = n.red
	n.red = true
	return x
}

func flipColors[K any, V any](n *node[K, V]) {
	n.red = !n.red
	if n.left != nil {
		n.left.red = !n.left.red
	}
	if n.right != nil {
		n.right.red = !n.right.red
	}
}

func moveRedLeft[K any, V any](n *node[K, V]) *node[K, V] {
	flipColors(n)
	if n.right != nil && isRed(n.right.left) {
		n.right = rotateRight(n.right)
		n = rotateLeft(n)
		flipColors(n)
	}
	return n
}

func moveRedRight[K any, V any](n *node[K, V]) *node[K, V] {
	flipColors(n)
	if n.left != nil && isRed(n.left.left) {
		n = rotateRight(n)
		flipColors(n)
	}
	return n
}

func fixUp[K any, V any](n *node[K, V]) *node[K, V] {
	if isRed(n.right) && !isRed(n.left) {
		n = rotateLeft(n)
	}
	if isRed(n.left) && isRed(n.left.left) {
		n = rotateRight(n)
	}
	if isRed(n.left) && isRed(n.right) {
		flipColors(n)
	}
	return n
}
