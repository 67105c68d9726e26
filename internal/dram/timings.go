// Package dram models the DRAM main-memory hierarchy the paper builds
// on (§2.2): channels of ranks, ranks of banks, banks of subarrays and
// rows, with a command-level timing model (ACT/RD/WR/PRE/REF), an
// all-bank auto-refresh state machine, and the XFM bank extension that
// allows parallel refresh and subarray access within one bank (Fig. 7).
//
// The timing model follows the paper's methodology (§7): a cycle-
// approximate model in the style of gem5's DDR4-2400 interface, with a
// 32 ms retention time, tRFC = 410 ns for the DDR5 32 Gb device, and
// tBURST = 2.5 ns.
package dram

import "fmt"

// Ps is a simulation timestamp or duration in picoseconds. Integer
// picoseconds keep the model deterministic and exact for the
// sub-nanosecond DDR timings (tBURST = 2.5 ns).
type Ps = int64

// Convenient duration units in picoseconds.
const (
	Nanosecond  Ps = 1000
	Microsecond Ps = 1000 * Nanosecond
	Millisecond Ps = 1000 * Microsecond
	Second      Ps = 1000 * Millisecond
)

// Timings is a DDR timing parameter set. All durations are in
// picoseconds.
type Timings struct {
	Name string

	TCK    Ps // clock period
	TRCD   Ps // ACT to RD/WR
	TCL    Ps // RD to first data
	TCWL   Ps // WR to first data
	TRP    Ps // PRE to ACT
	TRAS   Ps // ACT to PRE
	TRC    Ps // ACT to ACT, same bank
	TRFC   Ps // REF to next command (all-bank refresh)
	TREFI  Ps // average interval between REF commands
	TBurst Ps // data burst duration on the bus
	TSTAG  Ps // stagger between per-bank refresh starts (§2.2)

	Retention Ps // row retention time (~32 ms)

	// DataRateMTs is the transfer rate in mega-transfers/s, for
	// documentation and bandwidth math.
	DataRateMTs int
	// BusBytes is the data bus width of a rank in bytes (8 for x64).
	BusBytes int
	// BurstBytes is the number of bytes one burst moves (BusBytes ×
	// burst length).
	BurstBytes int
}

// PeakBandwidthGBps returns the theoretical peak bandwidth of one
// channel in GB/s.
func (t Timings) PeakBandwidthGBps() float64 {
	return float64(t.DataRateMTs) * 1e6 * float64(t.BusBytes) / 1e9
}

// REFsPerRetention returns how many REF commands are issued per
// retention interval (8192 for standard devices).
func (t Timings) REFsPerRetention() int {
	return int(t.Retention / t.TREFI)
}

// DDR5_3200 returns the DDR5-3200 timing set from the paper's
// evaluation (§7): 32 ms retention, tRFC = 410 ns (32 Gb all-bank),
// tBURST = 2.5 ns.
func DDR5_3200() Timings {
	return Timings{
		Name:        "DDR5-3200",
		TCK:         625,
		TRCD:        14375,
		TCL:         14375,
		TCWL:        11875,
		TRP:         14375,
		TRAS:        32000,
		TRC:         46375,
		TRFC:        410 * Nanosecond,
		TREFI:       32 * Millisecond / 8192, // 3.90625 us
		TBurst:      2500,                    // BL16 at 3200 MT/s, 16 B/chip burst
		TSTAG:       10 * Nanosecond,
		Retention:   32 * Millisecond,
		DataRateMTs: 3200,
		BusBytes:    8,
		BurstBytes:  64,
	}
}

// WithTRFC returns a copy of t with tRFC replaced, used for device
// capacity sweeps (Table 1 ties tRFC to chip capacity).
func (t Timings) WithTRFC(trfc Ps) Timings {
	t.TRFC = trfc
	return t
}

// DeviceConfig describes a DRAM chip generation (Table 1 of the paper)
// plus derived refresh/subarray geometry.
type DeviceConfig struct {
	Name              string
	CapacityGbit      int
	RowsPerBank       int
	BanksPerChip      int
	TRFC              Ps  // all-bank refresh duration
	RowsPerBankPerREF int // rows of one bank refreshed during one tRFC
	SubarraysPerBank  int
	RowsPerSubarray   int
	// ChipRowBytes is the row (page) size of one chip in bytes.
	ChipRowBytes int
}

// The three DDR5 device configurations of Table 1.
var (
	Device8Gb = DeviceConfig{
		Name: "8Gb", CapacityGbit: 8,
		RowsPerBank: 64 << 10, BanksPerChip: 16,
		TRFC: 195 * Nanosecond, RowsPerBankPerREF: 8,
		SubarraysPerBank: 128, RowsPerSubarray: 512, ChipRowBytes: 1024,
	}
	Device16Gb = DeviceConfig{
		Name: "16Gb", CapacityGbit: 16,
		RowsPerBank: 64 << 10, BanksPerChip: 32,
		TRFC: 295 * Nanosecond, RowsPerBankPerREF: 8,
		SubarraysPerBank: 128, RowsPerSubarray: 512, ChipRowBytes: 1024,
	}
	Device32Gb = DeviceConfig{
		Name: "32Gb", CapacityGbit: 32,
		RowsPerBank: 128 << 10, BanksPerChip: 32,
		TRFC: 410 * Nanosecond, RowsPerBankPerREF: 16,
		SubarraysPerBank: 256, RowsPerSubarray: 512, ChipRowBytes: 1024,
	}
)

// Table1Devices returns the Table 1 device set in capacity order.
func Table1Devices() []DeviceConfig {
	return []DeviceConfig{Device8Gb, Device16Gb, Device32Gb}
}

// Validate checks internal consistency of the configuration.
func (d DeviceConfig) Validate() error {
	if d.RowsPerBank <= 0 || d.BanksPerChip <= 0 || d.SubarraysPerBank <= 0 {
		return fmt.Errorf("dram: %s: non-positive geometry", d.Name)
	}
	if d.RowsPerSubarray*d.SubarraysPerBank != d.RowsPerBank {
		return fmt.Errorf("dram: %s: subarrays (%d×%d) do not cover rows per bank (%d)",
			d.Name, d.SubarraysPerBank, d.RowsPerSubarray, d.RowsPerBank)
	}
	bits := int64(d.RowsPerBank) * int64(d.BanksPerChip) * int64(d.ChipRowBytes) * 8
	if bits != int64(d.CapacityGbit)<<30 {
		return fmt.Errorf("dram: %s: geometry yields %d bits, want %d Gbit", d.Name, bits, d.CapacityGbit)
	}
	return nil
}

// RefreshGroups returns the number of REF commands needed to walk all
// rows of a bank once (the refresh counter modulus).
func (d DeviceConfig) RefreshGroups() int {
	return d.RowsPerBank / d.RowsPerBankPerREF
}

// RefreshedRows returns the half-open row interval [lo, hi) of every
// bank refreshed by REF command number ref (taken modulo the refresh
// group count).
func (d DeviceConfig) RefreshedRows(ref int) (lo, hi int) {
	g := ref % d.RefreshGroups()
	lo = g * d.RowsPerBankPerREF
	return lo, lo + d.RowsPerBankPerREF
}

// RowRefreshGroup returns the REF index (mod RefreshGroups) during
// which row is refreshed.
func (d DeviceConfig) RowRefreshGroup(row int) int {
	return row / d.RowsPerBankPerREF
}
