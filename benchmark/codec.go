package main

import (
	"sync/atomic"
	"time"

	"xfm/internal/compress"
)

// timingCodec decorates a compress.Codec with in-situ timing (the
// fault.WrapCodec precedent): handed to a backend constructor, it sees
// every codec call the backend makes, on whichever worker makes it, and
// records each as a child span of the swap call the generator is in.
// Name, Info and MaxCompressedLen pass through unchanged, so the backend
// stores the same bytes and charges the same modelled cycles as with the
// bare codec. It is only ever installed in the traced run.
type timingCodec struct {
	inner compress.Codec
	tr    *tracer

	compNs, decompNs       atomic.Int64
	compCalls, decompCalls atomic.Int64
	storedBytes            atomic.Int64
}

func (c *timingCodec) Name() string               { return c.inner.Name() }
func (c *timingCodec) Info() compress.CodecInfo   { return c.inner.Info() }
func (c *timingCodec) MaxCompressedLen(n int) int { return c.inner.MaxCompressedLen(n) }

func (c *timingCodec) Compress(dst, src []byte) []byte {
	t0 := time.Now()
	out := c.inner.Compress(dst, src)
	t1 := time.Now()
	c.compNs.Add(t1.Sub(t0).Nanoseconds())
	c.compCalls.Add(1)
	c.storedBytes.Add(int64(len(out) - len(dst)))
	c.tr.leaf("Compress", "compress", t0, t1)
	return out
}

func (c *timingCodec) Decompress(dst, src []byte) ([]byte, error) {
	t0 := time.Now()
	out, err := c.inner.Decompress(dst, src)
	t1 := time.Now()
	c.decompNs.Add(t1.Sub(t0).Nanoseconds())
	c.decompCalls.Add(1)
	c.tr.leaf("Decompress", "compress", t0, t1)
	return out, err
}

// storedCodec stores pages as they are. The xfm self-time replay hands
// it to both backends it compares, so the store underneath costs a few
// copies and the offload path's serial phase — which never touches the
// codec — is no longer a rounding error next to (de)compression.
type storedCodec struct{}

func (storedCodec) Name() string                               { return "stored" }
func (storedCodec) Info() compress.CodecInfo                   { return compress.CodecInfo{} }
func (storedCodec) MaxCompressedLen(n int) int                 { return n }
func (storedCodec) Compress(dst, src []byte) []byte            { return append(dst, src...) }
func (storedCodec) Decompress(dst, src []byte) ([]byte, error) { return append(dst, src...), nil }

// reset zeroes the counters (after the warm-up round of a traced
// set-up, so the in-situ numbers cover the traced round alone).
func (c *timingCodec) reset() {
	c.compNs.Store(0)
	c.decompNs.Store(0)
	c.compCalls.Store(0)
	c.decompCalls.Store(0)
	c.storedBytes.Store(0)
}

// busyNs is the total time spent inside the codec, summed over workers.
func (c *timingCodec) busyNs() int64 { return c.compNs.Load() + c.decompNs.Load() }

// report writes the compress.* in-situ metrics for a traced phase that
// took wallNs on the given number of workers.
func (c *timingCodec) report(m metrics, wallNs int64, workers int) {
	m["compress.compress_us_per_page"] = ratio(float64(c.compNs.Load())/1e3, float64(c.compCalls.Load()))
	m["compress.decompress_us_per_page"] = ratio(float64(c.decompNs.Load())/1e3, float64(c.decompCalls.Load()))
	m["compress.calls"] = float64(c.compCalls.Load() + c.decompCalls.Load())
	m["compress.stored_bytes_per_page"] = ratio(float64(c.storedBytes.Load()), float64(c.compCalls.Load()))
	m["compress.busy_share"] = ratio(float64(c.busyNs()), float64(wallNs)*float64(workers))
}
