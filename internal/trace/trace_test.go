package trace

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func sampleRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	ops := []Op{SwapOut, SwapIn, Prefetch}
	out := make([]Record, n)
	at := int64(0)
	for i := range out {
		at += int64(rng.Intn(1000000))
		out[i] = Record{
			AtPs:   at,
			Op:     ops[rng.Intn(3)],
			PageID: int64(rng.Intn(100000)),
			Bytes:  4096,
		}
	}
	return out
}

func TestTextRoundTrip(t *testing.T) {
	recs := sampleRecords(100, 1)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 100 {
		t.Errorf("Count = %d, want 100", w.Count())
	}
	got, err := ReadAll(NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestWriteRejectsInvalidOp(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.Write(Record{Op: 'Z'}); err != ErrBadRecord {
		t.Errorf("invalid op accepted: %v", err)
	}
}

func TestReadMalformedText(t *testing.T) {
	cases := []string{
		"not json\n",
		`{"at":1,"op":"O","page":2}` + "\n",                // missing bytes
		`{"at":"x","op":"O","page":2,"bytes":4096}` + "\n", // bad int
		`{"at":1,"op":"ZZ","page":2,"bytes":4096}` + "\n",  // bad op
		`{"at":1,"at":2,"op":"O","page":3}` + "\n",         // repeated key, missing bytes
	}
	for _, c := range cases {
		_, err := NewReader(bytes.NewBufferString(c)).Read()
		if err == nil {
			t.Errorf("malformed line accepted: %q", c)
		}
	}
}

func TestEmptyStreams(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(nil)).Read(); err != io.EOF {
		t.Errorf("empty text stream: err = %v, want EOF", err)
	}
}

func TestOpStrings(t *testing.T) {
	if SwapOut.String() != "out" || SwapIn.String() != "in" || Prefetch.String() != "prefetch" {
		t.Error("op strings wrong")
	}
	if Op('Z').String() != "invalid" || Op('Z').Valid() {
		t.Error("invalid op not detected")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(at int64, page int64, opSel uint8, b int32) bool {
		r := Record{
			AtPs:   at,
			Op:     []Op{SwapOut, SwapIn, Prefetch}[int(opSel)%3],
			PageID: page,
			Bytes:  b,
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if w.Write(r) != nil || w.Flush() != nil {
			return false
		}
		got, err := NewReader(&buf).Read()
		return err == nil && got == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
