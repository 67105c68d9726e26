package xfm

import (
	"xfm/internal/ecc"
	"xfm/internal/fault"
	"xfm/internal/parallel"
	"xfm/internal/sfm"
	"xfm/internal/telemetry"
)

// integrity is everything ECC-shaped about a Backend: the side-band
// parity of every stored page (§4.1: the NMA regenerates the x72 parity
// bytes when writing data back so the host memory controller can keep
// performing SECDED on later reads), its verification on swap-in, and
// the chaos plan's bit flips.
//
// Each direction is a stage/settle pair around the offload core's
// driver.AdvanceTo: stage walks the batch once serially (parity map,
// free list, injection draws) and fans the pure per-page math out on
// the pool; settle folds page i's result into the counters and the
// parity map, in input order. A parity entry exists exactly while a
// page swapped out with ECC on is stored; its 512-byte buffer comes
// from and returns to parityFree. Map, free list and scratch are
// touched only on the serial phases; the fan-outs see disjoint slots.
// The counters are atomic because ECCStats() may be read while a batch
// is in flight.
type integrity struct {
	on         bool // SetECC
	parity     map[sfm.PageID][]byte
	parityFree [][]byte

	// Fan-out scratch for one batch: pars[i] is page i's parity buffer
	// (nil = no ECC work), vs[i] its verification result; outs/ins alias
	// the caller's batch for the duration of the Run. The step funcs are
	// bound once so a warm batch allocates no closure. The pool is
	// persistent, so steady-state batches spin up no goroutines; workers
	// caps each Run (0 = GOMAXPROCS).
	pool               *parallel.Pool
	workers            int
	outs               []sfm.PageOut
	ins                []sfm.PageIn
	pars               [][]byte
	vs                 []eccVerdict
	parityFn, verifyFn func(w, i int)

	// inj schedules deterministic bit flips on swap-in images (nil
	// unless armed).
	inj *fault.Injector

	parityBytes   telemetry.Counter
	corrected     telemetry.Counter
	uncorrectable telemetry.Counter
}

type eccVerdict struct{ corrected, bad int }

func newIntegrity() *integrity {
	in := &integrity{
		on:     true,
		parity: map[sfm.PageID][]byte{},
		pool:   parallel.NewPool(0),
	}
	in.parityFn = in.parityStep
	in.verifyFn = in.verifyStep
	return in
}

// reset sizes the per-page slots for an n-page batch and clears pars.
func (in *integrity) reset(n int) {
	if cap(in.pars) < n {
		in.pars = make([][]byte, n)
		in.vs = make([]eccVerdict, n)
	}
	in.pars, in.vs = in.pars[:n], in.vs[:n]
	for i := range in.pars {
		in.pars[i] = nil
	}
}

func (in *integrity) parityStep(_, i int) {
	if p := in.pars[i]; p != nil {
		ecc.PageParityInto(p, in.outs[i].Data)
	}
}

func (in *integrity) verifyStep(_, i int) {
	if p := in.pars[i]; p != nil {
		c, bad := ecc.VerifyPage(in.ins[i].Dst, p)
		in.vs[i] = eccVerdict{corrected: c, bad: bad}
	}
}

// stageOut registers a parity buffer for every page the store accepted
// (errs[i] == nil) and computes the parities on the pool; with ECC off
// it drops any entry the page's previous image left behind.
func (in *integrity) stageOut(pages []sfm.PageOut, errs []error) {
	in.reset(len(pages))
	for i, p := range pages {
		if errs[i] != nil {
			continue
		}
		if in.on {
			in.pars[i] = in.parityBuf(p.ID)
		} else {
			in.dropParity(p.ID)
		}
	}
	if in.on {
		in.outs = pages
		in.pool.Run(len(pages), in.workers, in.parityFn)
		in.outs = nil
	}
}

// settleOut accounts page i's regenerated parity.
func (in *integrity) settleOut(i int) {
	if par := in.pars[i]; par != nil {
		in.parityBytes.Add(int64(len(par)))
	}
}

// stageIn looks up the parity of every page the store returned, applies
// the scheduled bit flips (drawn by page ID) and verifies the images on
// the pool.
func (in *integrity) stageIn(pages []sfm.PageIn, errs []error) {
	in.reset(len(pages))
	verify := false
	for i, p := range pages {
		if errs[i] != nil {
			continue
		}
		par, ok := in.parity[p.ID]
		if !ok {
			continue
		}
		if !in.on {
			// Swapped in unverified: an entry must not outlive the
			// page image it describes.
			in.dropParity(p.ID)
			continue
		}
		if in.inj != nil {
			in.injectECC(p.ID, p.Dst)
		}
		in.pars[i] = par
		verify = true
	}
	if verify {
		in.ins = pages
		in.pool.Run(len(pages), in.workers, in.verifyFn)
		in.ins = nil
	}
}

// settleIn folds page i's verdict into the counters and retires its
// parity entry; a page with uncorrectable words fails with a
// *UncorrectableError.
func (in *integrity) settleIn(i int, id sfm.PageID) error {
	par := in.pars[i]
	if par == nil {
		return nil
	}
	in.retireParity(id, par) // stageIn already looked the entry up
	v := in.vs[i]
	if v == (eccVerdict{}) { // a clean page adds four zeros
		return nil
	}
	in.corrected.Add(int64(v.corrected))
	telemetry.XFMECCCorrected.Add(int64(v.corrected))
	in.uncorrectable.Add(int64(v.bad))
	telemetry.XFMECCUncorrectable.Add(int64(v.bad))
	if v.bad > 0 {
		return &UncorrectableError{Page: id, BadWords: v.bad}
	}
	return nil
}

// parityBuf returns the parity buffer registered for id, registering
// a recycled (or, cold, a new) one when the page has none.
func (in *integrity) parityBuf(id sfm.PageID) []byte {
	if p, ok := in.parity[id]; ok {
		return p
	}
	var p []byte
	if n := len(in.parityFree); n > 0 {
		p, in.parityFree = in.parityFree[n-1], in.parityFree[:n-1]
	} else {
		p = make([]byte, sfm.PageSize/8)
	}
	in.parity[id] = p
	return p
}

// dropParity forgets id's parity, if any, and recycles its buffer.
func (in *integrity) dropParity(id sfm.PageID) {
	if p, ok := in.parity[id]; ok {
		in.retireParity(id, p)
	}
}

// retireParity removes id's parity entry, whose buffer is p, and
// recycles the buffer.
func (in *integrity) retireParity(id sfm.PageID, p []byte) {
	delete(in.parity, id)
	in.parityFree = append(in.parityFree, p)
}

// injectECC applies the chaos plan's scheduled bit flips to the page
// image read back from far memory, before parity verification. The
// draw is keyed by page ID, so which pages get hit is independent of
// swap order; multi takes precedence over single when both fire.
func (in *integrity) injectECC(id sfm.PageID, dst []byte) {
	words := len(dst) / 8
	if words == 0 {
		return
	}
	if in.inj.Hit(fault.SiteECCMulti, uint64(id)) {
		// Two flipped bits in one 64-bit word: uncorrectable under
		// SECDED (§4.1). The word index is a hash of the page ID so
		// hits spread across the page.
		w := int((uint64(id) * 0x9e3779b97f4a7c15 >> 17) % uint64(words))
		dst[w*8] ^= 0x41
		return
	}
	if in.inj.Hit(fault.SiteECCSingle, uint64(id)) {
		w := int((uint64(id) * 0xbf58476d1ce4e5b9 >> 17) % uint64(words))
		dst[w*8] ^= 0x01
	}
}
