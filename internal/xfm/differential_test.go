package xfm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"xfm/internal/compress"
	"xfm/internal/dram"
	"xfm/internal/fault"
	"xfm/internal/memctrl"
	"xfm/internal/nma"
	"xfm/internal/sfm"
)

// Model-based differential test (ROADMAP "Executable fidelity" (c)):
// seeded random op sequences run against a map[PageID][]byte oracle on
// three replicas of every backend stack in lock step — one driven only
// through the single-page entry points, one only through the batch
// entry points, one through a seeded interleaving of both. Every op
// checks returned errors, restored bytes and Contains against the
// oracle, and that the replicas' observable state is still equal.

type diffKind int

const (
	diffOut diffKind = iota
	diffIn
	diffCompact
	diffECCOff
	diffECCOn
)

type diffOp struct {
	kind    diffKind
	ids     []sfm.PageID // may repeat an id: first occurrence wins
	offload bool
}

// diffOps draws n ops over a small id space, so swap-outs of resident
// pages, swap-ins of absent ones and duplicates inside one batch all
// occur naturally.
func diffOps(seed int64, n int) []diffOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]diffOp, n)
	for i := range ops {
		var op diffOp
		switch r := rng.Intn(100); {
		case r < 45:
			op.kind = diffOut
		case r < 85:
			op.kind, op.offload = diffIn, rng.Intn(2) == 0
		case r < 90:
			op.kind = diffCompact
		case r < 93:
			op.kind = diffECCOff
		default:
			op.kind = diffECCOn
		}
		if op.kind == diffOut || op.kind == diffIn {
			op.ids = make([]sfm.PageID, 1+rng.Intn(24))
			for j := range op.ids {
				op.ids[j] = sfm.PageID(rng.Intn(96))
			}
			if len(op.ids) > 1 && rng.Intn(4) == 0 {
				op.ids[len(op.ids)-1] = op.ids[0]
			}
		}
		ops[i] = op
	}
	return ops
}

// diffPage is the content of id's version-th image: same-filled,
// run-compressible, incompressible or half-and-half by id, and
// different on every rewrite so a stale parity entry cannot verify.
func diffPage(id sfm.PageID, version int) []byte {
	seed := int64(id)*7919 + int64(version)
	rng := rand.New(rand.NewSource(seed))
	p := make([]byte, sfm.PageSize)
	switch id % 4 {
	case 0:
		return page(byte(seed))
	case 1:
		return compressiblePage(sfm.PageID(seed))
	case 2:
		rng.Read(p)
	default:
		rng.Read(p[:len(p)/2])
	}
	return p
}

// diffTarget is one replica: the backend under test plus whatever of
// its XFM state is observable.
type diffTarget struct {
	sfm.Backend
	xb   *Backend // SetECC, ECC state
	inj  *fault.Injector
	gb   *GroupBackend // fragmentation
	sims []*nma.Sim
}

// diffState is everything a replica exposes; comparable with ==.
type diffState struct {
	stats                             sfm.BackendStats
	parity, corrected, bad, spm, frag int64
	nma                               [2]nma.Stats
}

func (tg *diffTarget) state() diffState {
	s := diffState{stats: tg.Stats()}
	if b := tg.xb; b != nil {
		s.parity, s.corrected, s.bad = b.ECCStats()
		s.spm = b.SPMSyncs()
	}
	if tg.gb != nil {
		s.frag = tg.gb.FragmentationBytes()
	}
	for i, sim := range tg.sims {
		s.nma[i] = sim.Stats()
	}
	return s
}

// apply runs one op through the single-page or the batch entry points
// and returns one error slot per id.
func (tg *diffTarget) apply(now dram.Ps, op diffOp, batch bool, outs []sfm.PageOut, ins []sfm.PageIn) []error {
	switch op.kind {
	case diffOut:
		if batch {
			return tg.SwapOutBatch(now, outs)
		}
		errs := make([]error, len(outs))
		for i, p := range outs {
			errs[i] = tg.SwapOut(now, p.ID, p.Data)
		}
		return errs
	case diffIn:
		if batch {
			return tg.SwapInBatch(now, ins, op.offload)
		}
		errs := make([]error, len(ins))
		for i, p := range ins {
			errs[i] = tg.SwapIn(now, p.ID, p.Dst, op.offload)
		}
		return errs
	case diffCompact:
		tg.Compact()
	case diffECCOff, diffECCOn:
		if tg.xb != nil {
			tg.xb.SetECC(op.kind == diffECCOn)
		}
	}
	return nil
}

func TestDifferentialSingleVsBatch(t *testing.T) {
	mapping := memctrl.SkylakeMapping(4, 2, dram.Device32Gb)
	newDriver := func(tg *diffTarget) *Driver {
		sim := nma.NewSim(nma.DefaultConfig(dram.Device32Gb))
		tg.sims = append(tg.sims, sim)
		return NewDriver(sim)
	}
	// xfmTarget arms fault injection when spec is set.
	xfmTarget := func(t *testing.T, shards int, spec string) *diffTarget {
		tg := &diffTarget{}
		var err error
		if shards > 0 {
			tg.xb, err = NewShardedBackend(compress.NewXDeflate(), 1<<30, shards, 0, newDriver(tg), mapping)
		} else {
			tg.xb, err = NewBackend(compress.NewLZFast(), 1<<30, newDriver(tg), mapping)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tg.xb.Close)
		if spec != "" {
			plan, err := fault.ParseSpec(spec, 7)
			if err != nil {
				t.Fatal(err)
			}
			tg.inj = fault.NewInjector(plan)
			tg.xb.SetInjector(tg.inj)
		}
		tg.Backend = tg.xb
		return tg
	}
	// No ecc-multi: a double flip fails its page, which the oracle
	// cannot predict; TestBatchQuarantineMatchesSerial covers it.
	const chaos = "queue-full=0.05,ecc-single=0.2"
	for _, tc := range []struct {
		name   string
		mk     func(t *testing.T) *diffTarget
		faults bool
	}{
		{"sfm.CPUBackend", func(*testing.T) *diffTarget {
			return &diffTarget{Backend: sfm.NewCPUBackend(compress.NewLZFast(), 1<<30)}
		}, false},
		{"sfm.ShardedBackend", func(t *testing.T) *diffTarget {
			s := sfm.NewShardedBackend(compress.NewXDeflate(), 1<<30, 4, 0)
			t.Cleanup(s.Close)
			return &diffTarget{Backend: s}
		}, false},
		{"xfm.NewBackend", func(t *testing.T) *diffTarget { return xfmTarget(t, 0, "") }, false},
		{"xfm.NewBackend/chaos", func(t *testing.T) *diffTarget { return xfmTarget(t, 0, chaos) }, true},
		{"xfm.NewShardedBackend/chaos", func(t *testing.T) *diffTarget { return xfmTarget(t, 4, chaos) }, true},
		{"xfm.GroupBackend", func(t *testing.T) *diffTarget {
			tg := &diffTarget{}
			g, err := NewGroupBackend(func(w int) compress.Codec { return compress.NewXDeflateWindow(w) },
				1<<30, []*Driver{newDriver(tg), newDriver(tg)}, mapping)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(g.Close)
			tg.Backend, tg.gb = g, g
			return tg
		}, false},
	} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				// Replica 0 is single-only, 1 batch-only, 2 interleaved.
				reps := []*diffTarget{tc.mk(t), tc.mk(t), tc.mk(t)}
				mix := rand.New(rand.NewSource(seed))
				trefi := nma.DefaultConfig(dram.Device32Gb).Timings.TREFI
				oracle := map[sfm.PageID][]byte{}
				version := map[sfm.PageID]int{}
				now := dram.Ps(0)
				nOps := 200
				if raceEnabled {
					nOps = 40 // the codecs run ~20x slower instrumented
				}
				// A batch whose every page failed has still advanced its
				// driver to now, a loop of failing single-page calls has
				// not; the sim clocks meet again at the next page that
				// lands, so the NMA view is compared only from there on.
				// The closing swap-out of a fresh id makes the end state
				// one of those points.
				nmaInSync := true
				for n, op := range append(diffOps(seed, nOps), diffOp{kind: diffOut, ids: []sfm.PageID{96}}) {
					now += 256 * trefi
					// Play the op against the oracle first, in input order:
					// wantErr[i] is the error slot i must hold and, for a
					// swap-in that must succeed, wantPage[i] the image it
					// must restore.
					outs := make([]sfm.PageOut, len(op.ids))
					wantErr := make([]error, len(op.ids))
					wantPage := make([][]byte, len(op.ids))
					for i, id := range op.ids {
						outs[i] = sfm.PageOut{ID: id, Data: diffPage(id, version[id]+1)}
						pg, resident := oracle[id]
						switch {
						case op.kind == diffOut && resident:
							wantErr[i] = sfm.ErrExists
						case op.kind == diffOut:
							oracle[id] = outs[i].Data
							version[id]++
						case !resident:
							wantErr[i] = sfm.ErrNotFound
						default:
							wantPage[i] = pg
							delete(oracle, id)
						}
					}
					for _, err := range wantErr {
						if nmaInSync = err == nil; nmaInSync {
							break
						}
					}
					mixBatch := mix.Intn(2) == 0
					var ref diffState
					for r, tg := range reps {
						ins := make([]sfm.PageIn, len(op.ids))
						for i, id := range op.ids {
							ins[i] = sfm.PageIn{ID: id, Dst: make([]byte, sfm.PageSize)}
						}
						errs := tg.apply(now, op, r == 1 || r == 2 && mixBatch, outs, ins)
						for i, err := range errs {
							if err != wantErr[i] {
								t.Fatalf("op %d (%+v) replica %d: slot %d err = %v, want %v", n, op, r, i, err, wantErr[i])
							}
							if wantPage[i] != nil && !bytes.Equal(ins[i].Dst, wantPage[i]) {
								t.Fatalf("op %d replica %d: page %d restored with wrong bytes", n, r, op.ids[i])
							}
						}
						for _, id := range op.ids {
							if _, resident := oracle[id]; tg.Contains(id) != resident {
								t.Fatalf("op %d replica %d: Contains(%d) = %v, oracle says %v", n, r, id, !resident, resident)
							}
						}
						st := tg.state()
						if !nmaInSync {
							st.nma = [2]nma.Stats{}
						}
						if r == 0 {
							ref = st
						} else if st != ref {
							t.Fatalf("op %d (%+v): replica %d diverged from single-only:\nsingle %+v\nthis   %+v", n, op, r, ref, st)
						}
					}
				}
				end := reps[0].state()
				if end.stats.SwapOuts == 0 || end.stats.SwapIns == 0 {
					t.Fatalf("sequence swapped nothing: %+v", end.stats)
				}
				if tc.faults && !raceEnabled && (end.corrected == 0 || end.stats.Fallbacks == 0 ||
					reps[0].inj.Injected(fault.SiteQueueFull) == 0) {
					t.Fatalf("chaos row injected too little to prove anything: %+v", end)
				}
			})
		}
	}
}
