package xfm

import (
	"errors"
	"sync"
	"testing"

	"xfm/internal/compress"
	"xfm/internal/dram"
	"xfm/internal/memctrl"
	"xfm/internal/nma"
	"xfm/internal/sfm"
)

// TestStatsConcurrentWithBatch reads every snapshot API while sharded
// batch swaps are in flight. Run under -race this proves the satellite
// guarantee: Stats/ECCStats/SPMSyncs/MMIOStats are safe to call from a
// monitoring goroutine at any time.
func TestStatsConcurrentWithBatch(t *testing.T) {
	sim := nma.NewSim(nma.DefaultConfig(dram.Device32Gb))
	b, err := NewShardedBackend(compress.NewLZFast(), 1<<30, 4, 4,
		NewDriver(sim), memctrl.SkylakeMapping(4, 2, dram.Device32Gb))
	if err != nil {
		t.Fatal(err)
	}

	const rounds, batch = 20, 64
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := b.Stats()
				if st.SwapOuts < 0 || st.Fallbacks > st.SwapOuts+st.SwapIns {
					t.Errorf("implausible snapshot: %+v", st)
					return
				}
				b.ECCStats()
				b.SPMSyncs()
				b.Driver().MMIOStats()
			}
		}()
	}

	now := 50 * dram.Microsecond
	for r := 0; r < rounds; r++ {
		outs := make([]sfm.PageOut, batch)
		for i := range outs {
			id := sfm.PageID(r*batch + i)
			outs[i] = sfm.PageOut{ID: id, Data: compressiblePage(id)}
		}
		if err := errors.Join(b.SwapOutBatch(now, outs)...); err != nil {
			t.Fatal(err)
		}
		ins := make([]sfm.PageIn, batch)
		for i := range ins {
			ins[i] = sfm.PageIn{ID: outs[i].ID, Dst: make([]byte, sfm.PageSize)}
		}
		if err := errors.Join(b.SwapInBatch(now+dram.Microsecond, ins, true)...); err != nil {
			t.Fatal(err)
		}
		now += 2 * dram.Microsecond
	}
	close(stop)
	readers.Wait()

	st := b.Stats()
	if st.SwapOuts != rounds*batch || st.SwapIns != rounds*batch {
		t.Errorf("swap counts = %d/%d, want %d each", st.SwapOuts, st.SwapIns, rounds*batch)
	}
}
