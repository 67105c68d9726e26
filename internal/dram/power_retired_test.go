// Retired by the tooling diet (CHANGES.md, PR 17): no binary reaches
// anything declared here, so it no longer ships. It survives in a
// _test.go file only because its tests are on the suite's floor, which
// one PR may shrink by a few tests at most; delete this file together
// with power_test.go.

package dram

// DRAM power modeling in the Micron IDD style: background power from
// the precharge/active standby states, activation energy per ACT/PRE
// pair, read/write burst energy, and refresh energy. The §3 cost model
// uses a flat 4 W per-DIMM idle figure (EQ2.2); this model derives
// that class of number from device currents and lets the energy
// experiments split NMA savings by component.

// PowerParams holds per-device current/voltage parameters, reduced to
// energy-per-event and standby power for modeling.
type PowerParams struct {
	VDD float64 // volts

	// Standby currents (amps, whole chip).
	IDD2P float64 // precharge power-down
	IDD2N float64 // precharge standby
	IDD3N float64 // active standby

	// Per-event charges, already multiplied out to energy in nJ.
	ActPreNJ        float64 // one ACT+PRE pair
	ReadBurstNJ     float64 // one read burst (per chip row slice)
	WriteBurstNJ    float64
	RefreshPerRowNJ float64
}

// DDR5PowerParams returns representative DDR5 x8 device parameters
// (datasheet-class magnitudes).
func DDR5PowerParams() PowerParams {
	return PowerParams{
		VDD:             1.1,
		IDD2P:           0.030,
		IDD2N:           0.060,
		IDD3N:           0.085,
		ActPreNJ:        2.7, // matches energy.RowActPreNJ
		ReadBurstNJ:     1.3,
		WriteBurstNJ:    1.5,
		RefreshPerRowNJ: 0.6,
	}
}

// PowerUse splits a rank's energy over an interval by component.
type PowerUse struct {
	BackgroundNJ float64
	ActivateNJ   float64
	ReadNJ       float64
	WriteNJ      float64
	RefreshNJ    float64
}

// TotalNJ sums the components.
func (p PowerUse) TotalNJ() float64 {
	return p.BackgroundNJ + p.ActivateNJ + p.ReadNJ + p.WriteNJ + p.RefreshNJ
}

// AverageWatts converts the energy over an interval to power.
func (p PowerUse) AverageWatts(interval Ps) float64 {
	if interval <= 0 {
		return 0
	}
	return p.TotalNJ() * 1e-9 / (float64(interval) / float64(Second))
}

// RankEnergy computes a rank's energy over [0, interval] from its
// statistics. chips is the number of devices acting in lockstep
// (standby power scales with it); activeFrac is the fraction of time
// banks were active (1.0 = always at IDD3N, 0 = always at IDD2N).
func RankEnergy(pp PowerParams, st RankStats, cfg DeviceConfig, interval Ps, chips int, activeFrac float64) PowerUse {
	if activeFrac < 0 {
		activeFrac = 0
	}
	if activeFrac > 1 {
		activeFrac = 1
	}
	seconds := float64(interval) / float64(Second)
	standbyI := pp.IDD2N*(1-activeFrac) + pp.IDD3N*activeFrac
	var use PowerUse
	use.BackgroundNJ = standbyI * pp.VDD * seconds * float64(chips) * 1e9
	acts := float64(st.RowMisses) // each miss costs an ACT(+PRE) cycle
	use.ActivateNJ = acts * pp.ActPreNJ
	use.ReadNJ = float64(st.ReadBursts) * pp.ReadBurstNJ
	use.WriteNJ = float64(st.WriteBursts) * pp.WriteBurstNJ
	rowsRefreshed := float64(st.REFs) * float64(cfg.RowsPerBankPerREF) * float64(cfg.BanksPerChip)
	use.RefreshNJ = rowsRefreshed * pp.RefreshPerRowNJ
	return use
}

// IdleDIMMWatts returns the background power of an idle DIMM (ranks ×
// chips at precharge standby) — the quantity EQ2.2 charges at 4 W.
func IdleDIMMWatts(pp PowerParams, ranks, chipsPerRank int) float64 {
	return pp.IDD2N * pp.VDD * float64(ranks*chipsPerRank)
}
