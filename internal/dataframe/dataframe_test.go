package dataframe

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"xfm/internal/compress"
	"xfm/internal/dram"
	"xfm/internal/sfm"
)

func newFrame() (*Frame, *sfm.Heap) {
	h := sfm.NewHeap(sfm.NewCPUBackend(compress.NewLZFast(), 0))
	return New(h), h
}

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func TestAddAndPointLookup(t *testing.T) {
	f, _ := newFrame()
	col, err := f.AddInt64(0, "id", seq(1500)) // spans 3 pages
	if err != nil {
		t.Fatal(err)
	}
	if col.Pages() != 3 {
		t.Errorf("pages = %d, want 3 (512 values per page)", col.Pages())
	}
	if f.Rows() != 1500 {
		t.Errorf("rows = %d", f.Rows())
	}
	for _, row := range []int{0, 511, 512, 1023, 1499} {
		v, err := col.Int64At(0, row)
		if err != nil {
			t.Fatal(err)
		}
		if v != int64(row) {
			t.Errorf("row %d = %d", row, v)
		}
	}
	if _, err := col.Int64At(0, 1500); err == nil {
		t.Error("out-of-range row accepted")
	}
	if _, err := col.Int64At(0, -1); err == nil {
		t.Error("negative row accepted")
	}
}

func TestColumnMismatches(t *testing.T) {
	f, _ := newFrame()
	if _, err := f.AddInt64(0, "a", seq(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddInt64(0, "a", seq(10)); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := f.AddInt64(0, "b", seq(11)); err == nil {
		t.Error("ragged column accepted")
	}
	if _, err := f.Column("nope"); err == nil {
		t.Error("missing column returned")
	}
	col, _ := f.Column("a")
	if _, err := col.Float64At(0, 0); err == nil {
		t.Error("type confusion accepted")
	}
	if _, err := col.MeanFloat64(0); err == nil {
		t.Error("float op on int column accepted")
	}
}

func TestSumAndFilter(t *testing.T) {
	f, _ := newFrame()
	col, _ := f.AddInt64(0, "v", seq(1000))
	sum, err := col.SumInt64(0)
	if err != nil {
		t.Fatal(err)
	}
	if sum != 999*1000/2 {
		t.Errorf("sum = %d, want %d", sum, 999*1000/2)
	}
	rows, err := col.FilterInt64(0, func(v int64) bool { return v%100 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Errorf("filter matched %d rows, want 10", len(rows))
	}
}

func TestFloatColumnMean(t *testing.T) {
	f, _ := newFrame()
	vals := make([]float64, 700)
	for i := range vals {
		vals[i] = float64(i) / 7
	}
	col, err := f.AddFloat64(0, "f", vals)
	if err != nil {
		t.Fatal(err)
	}
	mean, err := col.MeanFloat64(0)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, v := range vals {
		want += v
	}
	want /= float64(len(vals))
	if math.Abs(mean-want) > 1e-9 {
		t.Errorf("mean = %v, want %v", mean, want)
	}
	v, err := col.Float64At(0, 699)
	if err != nil || v != vals[699] {
		t.Errorf("Float64At = %v, %v", v, err)
	}
}

func TestGroupSum(t *testing.T) {
	f, _ := newFrame()
	n := 2000
	keys := make([]int64, n)
	vals := make([]int64, n)
	want := map[int64]int64{}
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = int64(rng.Intn(5))
		vals[i] = int64(rng.Intn(100))
		want[keys[i]] += vals[i]
	}
	f.AddInt64(0, "k", keys)
	f.AddInt64(0, "v", vals)
	got, err := f.GroupSumInt64(0, "k", "v")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("groups = %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("group %d = %d, want %d", k, got[k], v)
		}
	}
}

func TestDemoteAndQueryThroughFarMemory(t *testing.T) {
	f, heap := newFrame()
	col, _ := f.AddInt64(0, "v", seq(5120)) // 10 pages
	demoted, err := f.Demote(dram.Second, "v")
	if err != nil {
		t.Fatal(err)
	}
	if demoted != 10 {
		t.Fatalf("demoted %d pages, want 10", demoted)
	}
	if heap.Stats().FarPages != 10 {
		t.Fatalf("far pages = %d", heap.Stats().FarPages)
	}
	// A scan over the demoted column faults pages back and still
	// computes the right answer.
	sum, err := col.SumInt64(2 * dram.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sum != 5119*5120/2 {
		t.Errorf("sum over far memory = %d", sum)
	}
	if heap.Stats().DemandFaults != 10 {
		t.Errorf("demand faults = %d, want 10", heap.Stats().DemandFaults)
	}
}

func TestPrefetchAvoidsFaults(t *testing.T) {
	f, heap := newFrame()
	col, _ := f.AddInt64(0, "v", seq(2048)) // 4 pages
	f.Demote(dram.Second, "v")
	n, err := f.PrefetchColumn(2*dram.Second, "v")
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("prefetched %d pages, want 4", n)
	}
	if _, err := col.SumInt64(3 * dram.Second); err != nil {
		t.Fatal(err)
	}
	st := heap.Stats()
	if st.DemandFaults != 0 {
		t.Errorf("faults = %d after prefetch, want 0", st.DemandFaults)
	}
	if st.PrefetchedPages != 4 {
		t.Errorf("prefetches = %d, want 4", st.PrefetchedPages)
	}
}

func TestKindStrings(t *testing.T) {
	if KindInt64.String() != "int64" || KindFloat64.String() != "float64" {
		t.Error("kind strings wrong")
	}
}

func BenchmarkScanSum(b *testing.B) {
	f, _ := newFrame()
	col, _ := f.AddInt64(0, "v", seq(51200))
	b.SetBytes(51200 * 8)
	for i := 0; i < b.N; i++ {
		if _, err := col.SumInt64(dram.Ps(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// Row- and scan-level column accessors. No binary reads a column this
// way (the examples run GroupSumInt64 and MeanFloat64), so they live
// with the tests that use them to look through far memory.

// Pages returns how many heap pages back the column.
func (c *Column) Pages() int { return len(c.pages) }

// raw fetches the stored word at row, touching (and possibly
// faulting) the backing page.
func (c *Column) raw(now dram.Ps, row int) (uint64, error) {
	if row < 0 || row >= c.rows {
		return 0, fmt.Errorf("dataframe: row %d out of range [0,%d)", row, c.rows)
	}
	page, err := c.frame.heap.Touch(now, c.pages[row/valuesPerPage])
	if err != nil {
		return 0, err
	}
	idx := row % valuesPerPage
	return binary.LittleEndian.Uint64(page[idx*8:]), nil
}

// Int64At returns the int64 value at row.
func (c *Column) Int64At(now dram.Ps, row int) (int64, error) {
	if c.kind != KindInt64 {
		return 0, fmt.Errorf("dataframe: column %q is %v", c.name, c.kind)
	}
	v, err := c.raw(now, row)
	return int64(v), err
}

// Float64At returns the float64 value at row.
func (c *Column) Float64At(now dram.Ps, row int) (float64, error) {
	if c.kind != KindFloat64 {
		return 0, fmt.Errorf("dataframe: column %q is %v", c.name, c.kind)
	}
	v, err := c.raw(now, row)
	return math.Float64frombits(v), err
}

// SumInt64 scans and sums an int64 column.
func (c *Column) SumInt64(now dram.Ps) (int64, error) {
	if c.kind != KindInt64 {
		return 0, fmt.Errorf("dataframe: column %q is %v", c.name, c.kind)
	}
	var sum int64
	err := c.scan(now, func(_ int, w uint64) { sum += int64(w) })
	return sum, err
}

// FilterInt64 returns the rows where pred holds.
func (c *Column) FilterInt64(now dram.Ps, pred func(int64) bool) ([]int, error) {
	if c.kind != KindInt64 {
		return nil, fmt.Errorf("dataframe: column %q is %v", c.name, c.kind)
	}
	var rows []int
	err := c.scan(now, func(row int, w uint64) {
		if pred(int64(w)) {
			rows = append(rows, row)
		}
	})
	return rows, err
}
