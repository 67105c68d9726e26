// Package trace defines the swap-in/out trace format the emulator
// consumes (§7: "Swap-in/out traces are generated using the AIFM
// userspace far memory framework when running a synthetic web
// front-end application"), encoded as JSON lines: one
// {"at":..,"op":"..","page":..,"bytes":..} object per record.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Op is a swap operation kind.
type Op byte

// Swap operations.
const (
	SwapOut  Op = 'O' // demote: compress into far memory
	SwapIn   Op = 'I' // demand promote: decompress on fault
	Prefetch Op = 'P' // preemptive promote: offloadable decompress
)

// Valid reports whether the op is one of the defined kinds.
func (o Op) Valid() bool { return o == SwapOut || o == SwapIn || o == Prefetch }

func (o Op) String() string {
	switch o {
	case SwapOut:
		return "out"
	case SwapIn:
		return "in"
	case Prefetch:
		return "prefetch"
	default:
		return "invalid"
	}
}

// Record is one swap event.
type Record struct {
	AtPs   int64 // simulation timestamp in picoseconds
	Op     Op
	PageID int64
	Bytes  int32 // page size (4096 for paging-granularity traces)
}

// ErrBadRecord is returned for malformed trace input.
var ErrBadRecord = errors.New("trace: malformed record")

// Writer emits records as JSON lines.
type Writer struct {
	w *bufio.Writer
	n int64
}

// NewWriter returns a writer.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Write appends one record.
func (w *Writer) Write(r Record) error {
	if !r.Op.Valid() {
		return ErrBadRecord
	}
	w.n++
	_, err := fmt.Fprintf(w.w, "{\"at\":%d,\"op\":\"%c\",\"page\":%d,\"bytes\":%d}\n",
		r.AtPs, r.Op, r.PageID, r.Bytes)
	return err
}

// Count returns the number of records written.
func (w *Writer) Count() int64 { return w.n }

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader decodes JSON-lines records.
type Reader struct {
	s *bufio.Reader
}

// NewReader returns a reader.
func NewReader(r io.Reader) *Reader { return &Reader{s: bufio.NewReader(r)} }

// Read returns the next record, or io.EOF at the end.
func (r *Reader) Read() (Record, error) {
	line, err := r.s.ReadString('\n')
	if err != nil {
		if err == io.EOF && strings.TrimSpace(line) == "" {
			return Record{}, io.EOF
		}
		if err != io.EOF {
			return Record{}, err
		}
	}
	return parseLine(strings.TrimSpace(line))
}

// keyBits gives each record key its bit in parseLine's seen set;
// other keys map to 0 and are skipped.
var keyBits = map[string]uint8{"at": 1, "op": 2, "page": 4, "bytes": 8}

const allKeys = 1 | 2 | 4 | 8

// parseLine decodes one {"at":..,"op":"..","page":..,"bytes":..} line
// with a small hand-rolled parser (records are machine-generated; a
// full JSON decoder is unnecessary). Each of the four keys must appear
// exactly once: a repeated key is not allowed to stand in for a
// missing one.
func parseLine(line string) (Record, error) {
	var rec Record
	if !strings.HasPrefix(line, "{") || !strings.HasSuffix(line, "}") {
		return rec, ErrBadRecord
	}
	fields := strings.Split(line[1:len(line)-1], ",")
	var seen uint8
	for _, f := range fields {
		kv := strings.SplitN(f, ":", 2)
		if len(kv) != 2 {
			return rec, ErrBadRecord
		}
		key := strings.Trim(kv[0], `" `)
		val := strings.TrimSpace(kv[1])
		bit := keyBits[key]
		if seen&bit != 0 {
			return rec, ErrBadRecord
		}
		seen |= bit
		switch key {
		case "at":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return rec, ErrBadRecord
			}
			rec.AtPs = n
		case "op":
			val = strings.Trim(val, `"`)
			if len(val) != 1 {
				return rec, ErrBadRecord
			}
			rec.Op = Op(val[0])
		case "page":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return rec, ErrBadRecord
			}
			rec.PageID = n
		case "bytes":
			n, err := strconv.ParseInt(val, 10, 32)
			if err != nil {
				return rec, ErrBadRecord
			}
			rec.Bytes = int32(n)
		}
	}
	if seen != allKeys || !rec.Op.Valid() {
		return rec, ErrBadRecord
	}
	return rec, nil
}

// ReadAll drains the reader.
func ReadAll(r *Reader) ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
