// Retired by the tooling diet (CHANGES.md, PR 17): no binary reaches
// anything declared here, so it no longer ships. It survives in a
// _test.go file only because its tests are on the suite's floor, which
// one PR may shrink by a few tests at most; delete this file together
// with mmio_test.go.

package xfm

import (
	"fmt"

	"xfm/internal/nma"
)

// MMIO register file (§6): XFM exposes its control interface as
// memory-mapped registers behind an ioctl'd character device. This
// file makes the register map concrete — the Driver's method surface
// is implemented on top of RegisterFile, so a test (or a curious
// user) can interact with XFM exactly the way the kernel driver
// would: 64-bit reads and writes at fixed offsets.

// Register offsets (byte addresses within the XFM BAR).
const (
	RegSPCapacity    = 0x00 // RO: free ScratchPad bytes
	RegQueueFree     = 0x08 // RO: free Compress_Request_Queue entries
	RegCompleted     = 0x10 // RO: completed-operation counter
	RegRegionBase    = 0x18 // RW: SFM region base (xfm_paramset)
	RegRegionSize    = 0x20 // RW: SFM region size (xfm_paramset)
	RegSubmitKind    = 0x28 // WO: 0 = compress, 1 = decompress
	RegSubmitSrcGrp  = 0x30 // WO: source refresh group
	RegSubmitDstGrp  = 0x38 // WO: destination refresh group (max uint64 = flexible)
	RegSubmitArrive  = 0x40 // WO: submission timestamp (ps)
	RegDoorbell      = 0x48 // WO: writing 1 enqueues the staged request
	RegSubmitStatus  = 0x50 // RO: 1 = last doorbell accepted, 0 = rejected
	registerFileSize = 0x58
)

// flexibleGroup is the RegSubmitDstGrp encoding for "any group".
const flexibleGroup = ^uint64(0)

// RegisterFile is the XFM DIMM's MMIO window over one NMA.
type RegisterFile struct {
	sim *nma.Sim

	regionBase uint64
	regionSize uint64

	// Staged submit descriptor, latched by the doorbell.
	kind, srcGrp, dstGrp, arrive uint64
	lastAccepted                 bool

	reads, writes int64
	nextID        int64
}

// NewRegisterFile maps a register file over the simulator.
func NewRegisterFile(sim *nma.Sim) *RegisterFile {
	return &RegisterFile{sim: sim}
}

// Read32/Write32 are not provided: the device requires 64-bit access,
// like most accelerator BARs.

// Read returns the register at offset.
func (r *RegisterFile) Read(offset int) (uint64, error) {
	r.reads++
	switch offset {
	case RegSPCapacity:
		return uint64(r.sim.Config().SPMBytes - r.sim.SPMUsed()), nil
	case RegQueueFree:
		return uint64(r.sim.Config().QueueDepth - r.sim.QueueLen()), nil
	case RegCompleted:
		return uint64(r.sim.Stats().Completed), nil
	case RegRegionBase:
		return r.regionBase, nil
	case RegRegionSize:
		return r.regionSize, nil
	case RegSubmitStatus:
		if r.lastAccepted {
			return 1, nil
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("xfm: read of invalid register %#x", offset)
	}
}

// Write stores v into the register at offset.
func (r *RegisterFile) Write(offset int, v uint64) error {
	r.writes++
	switch offset {
	case RegRegionBase:
		r.regionBase = v
	case RegRegionSize:
		r.regionSize = v
	case RegSubmitKind:
		r.kind = v
	case RegSubmitSrcGrp:
		r.srcGrp = v
	case RegSubmitDstGrp:
		r.dstGrp = v
	case RegSubmitArrive:
		r.arrive = v
	case RegDoorbell:
		if v != 1 {
			return fmt.Errorf("xfm: doorbell write %d, want 1", v)
		}
		return r.ring()
	default:
		return fmt.Errorf("xfm: write of invalid register %#x", offset)
	}
	return nil
}

// ring latches the staged descriptor into the request queue.
func (r *RegisterFile) ring() error {
	if r.regionSize == 0 {
		return fmt.Errorf("xfm: doorbell before region configuration")
	}
	kind := nma.CompressOp
	if r.kind == 1 {
		kind = nma.DecompressOp
	} else if r.kind != 0 {
		return fmt.Errorf("xfm: invalid submit kind %d", r.kind)
	}
	dst := int(r.dstGrp)
	if r.dstGrp == flexibleGroup {
		dst = -1
	}
	r.nextID++
	r.lastAccepted = r.sim.Submit(nma.Request{
		ID:       r.nextID,
		Kind:     kind,
		SrcGroup: int(r.srcGrp),
		DstGroup: dst,
		Arrive:   int64(r.arrive),
	})
	return nil
}

// AccessCounts returns (reads, writes) for the register file.
func (r *RegisterFile) AccessCounts() (int64, int64) { return r.reads, r.writes }

// Size returns the BAR size in bytes.
func (r *RegisterFile) Size() int { return registerFileSize }
