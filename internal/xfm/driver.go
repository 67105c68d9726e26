// Package xfm is the core library of this reproduction: the XFM
// driver (MMIO register interface to the near-memory accelerator), the
// XFM backend (an sfm.Backend that offloads page compression and
// decompression to the NMA during DRAM refresh windows, falling back
// to the CPU under back-pressure), and the multi-channel data layout
// (§6, Fig. 9).
package xfm

import (
	"errors"
	"fmt"

	"xfm/internal/dram"
	"xfm/internal/fault"
	"xfm/internal/nma"
	"xfm/internal/telemetry"
)

// errNotInitialized is preallocated: Submit sits on the swap-out hot
// path and must not construct an error per rejected call.
var errNotInitialized = errors.New("xfm: driver not initialized with Paramset")

// Driver models the XFM_Driver (§6): "primitives for interacting with
// XFM hardware via MMIO operations to internal registers", exposing
// the SP_Capacity_Register and the Compress_Request_Queue. In Linux
// these are reached through ioctl() on a character device; here the
// ioctl surface is the exported method set.
type Driver struct {
	sim *nma.Sim

	regionBase  int64
	regionBytes int64
	paramSet    bool

	// MMIO round trips are the control-path cost of every offload;
	// atomic telemetry counters make MMIOStats a race-free snapshot and
	// feed the process-wide xfm_mmio_* metrics.
	mmioReads  telemetry.Counter
	mmioWrites telemetry.Counter
	ioctls     telemetry.Counter

	// Fault injection (nil unless a chaos plan is armed). submitSeq
	// numbers submissions so each Submit draws its own deterministic
	// injection decision. Submissions are serial by design (the batch
	// paths replay them in input order), so the sequence is
	// reproducible.
	inj       *fault.Injector
	submitSeq uint64
}

// mmioRead charges one register read.
func (d *Driver) mmioRead() {
	d.mmioReads.Inc()
	telemetry.XFMMMIOReads.Inc()
}

// mmioWrite charges n register writes.
func (d *Driver) mmioWrite(n int64) {
	d.mmioWrites.Add(n)
	telemetry.XFMMMIOWrites.Add(n)
}

// NewDriver builds a driver over one NMA rank simulator.
func NewDriver(sim *nma.Sim) *Driver {
	return &Driver{sim: sim}
}

// SetInjector arms fault injection on the driver and its NMA sim (nil
// disarms): submissions can bounce off a spuriously full queue, and the
// sim's refresh windows can be starved by storms.
func (d *Driver) SetInjector(in *fault.Injector) {
	d.inj = in
	d.sim.SetInjector(in)
}

// Paramset configures the SFM region's base offset and size in
// physical memory via MMIO writes to internal configuration registers
// (§6 "Initialization ... xfm_paramset()").
func (d *Driver) Paramset(base, size int64) error {
	if size <= 0 {
		return fmt.Errorf("xfm: non-positive region size %d", size)
	}
	if base < 0 {
		return fmt.Errorf("xfm: negative region base %d", base)
	}
	d.ioctls.Inc()
	telemetry.XFMIoctls.Inc()
	d.mmioWrite(2)
	d.regionBase, d.regionBytes = base, size
	d.paramSet = true
	return nil
}

// Region returns the configured SFM region.
func (d *Driver) Region() (base, size int64) { return d.regionBase, d.regionBytes }

// PollCompletions reads the completion counter register: the total
// number of offloads the NMA has finished. The backend uses the delta
// against its own submission count to maintain its lazy upper bound on
// SPM occupancy without per-operation synchronization (§6).
func (d *Driver) PollCompletions() int64 {
	d.mmioRead()
	return d.sim.Stats().Completed
}

// Submit pushes one offload request into the Compress_Request_Queue
// with an MMIO write. It returns false when the hardware rejected the
// request and the caller must run the operation on the CPU.
//
// An injected queue-full fires before the sim sees the request, so a
// spuriously rejected op leaves no trace in the NMA accounting.
func (d *Driver) Submit(req nma.Request) (bool, error) {
	if !d.paramSet {
		return false, errNotInitialized
	}
	d.mmioWrite(1)
	if d.inj != nil {
		d.submitSeq++
		if d.inj.Hit(fault.SiteQueueFull, d.submitSeq) {
			return false, nil
		}
	}
	return d.sim.Submit(req), nil
}

// AdvanceTo steps the NMA's refresh windows until the window clock
// passes now; the emulator harness calls this as simulated time
// advances. Idle stretches fast-forward in O(1).
func (d *Driver) AdvanceTo(now dram.Ps) {
	d.sim.AdvanceTo(now)
}

// NMAStats returns the underlying accelerator statistics.
func (d *Driver) NMAStats() nma.Stats { return d.sim.Stats() }

// MMIOStats returns (reads, writes, ioctls) counts, the cost of the
// control path.
func (d *Driver) MMIOStats() (reads, writes, ioctls int64) {
	return d.mmioReads.Value(), d.mmioWrites.Value(), d.ioctls.Value()
}

// Sim exposes the NMA simulator (experiments inspect it directly).
func (d *Driver) Sim() *nma.Sim { return d.sim }
