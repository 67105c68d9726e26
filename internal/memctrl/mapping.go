// Package memctrl implements the CPU-side memory controller: physical
// address mapping (Skylake-style channel/bank interleaving, §5/§6 of
// the paper), per-channel command scheduling over the dram model, and
// bandwidth/latency accounting.
package memctrl

import (
	"fmt"

	"xfm/internal/dram"
)

// Mapping decomposes physical addresses into DRAM coordinates. The
// paper assumes the Intel Xeon Skylake mapping: 256 B channel
// interleave granularity and 128 B bank interleave granularity (§5),
// so a 4 KiB page is spread over four channels and two banks per rank
// (Fig. 6a).
type Mapping struct {
	Channels        int
	RanksPerChannel int
	Device          dram.DeviceConfig
	ChipsPerRank    int

	// ChannelInterleave and BankInterleave are the interleaving
	// granularities in bytes.
	ChannelInterleave int
	BankInterleave    int

	// XORBankHash folds low row bits into the bank-group index (the
	// bank-address hashing real controllers use, and the kind of
	// permutation-based mapping the DRAMA reverse-engineering the
	// paper cites uncovers). It spreads strided streams that would
	// otherwise camp on one bank across the bank groups.
	XORBankHash bool
}

// SkylakeMapping returns the paper's reference mapping: 256 B channel
// and 128 B bank interleave with 8 data chips per rank.
func SkylakeMapping(channels, ranksPerChannel int, dev dram.DeviceConfig) Mapping {
	return Mapping{
		Channels:          channels,
		RanksPerChannel:   ranksPerChannel,
		Device:            dev,
		ChipsPerRank:      8,
		ChannelInterleave: 256,
		BankInterleave:    128,
	}
}

// RowBytes returns the number of bytes in one rank-level row (all
// chips' rows combined).
func (m Mapping) RowBytes() int { return m.Device.ChipRowBytes * m.ChipsPerRank }

// RankBytes returns the capacity of one rank in bytes.
func (m Mapping) RankBytes() int64 {
	return int64(m.RowBytes()) * int64(m.Device.RowsPerBank) * int64(m.Device.BanksPerChip)
}

// TotalBytes returns the capacity of the whole memory system.
func (m Mapping) TotalBytes() int64 {
	return m.RankBytes() * int64(m.Channels) * int64(m.RanksPerChannel)
}

// Coord is a fully decomposed physical address.
type Coord struct {
	Channel int
	Rank    int
	Bank    int
	Row     int
	Col     int // byte offset within the rank-level row
}

// Validate checks the mapping's internal consistency.
func (m Mapping) Validate() error {
	if m.Channels <= 0 || m.RanksPerChannel <= 0 || m.ChipsPerRank <= 0 {
		return fmt.Errorf("memctrl: non-positive geometry %+v", m)
	}
	if m.ChannelInterleave <= 0 || m.BankInterleave <= 0 {
		return fmt.Errorf("memctrl: non-positive interleave")
	}
	if m.ChannelInterleave%m.BankInterleave != 0 {
		return fmt.Errorf("memctrl: channel interleave %d not a multiple of bank interleave %d",
			m.ChannelInterleave, m.BankInterleave)
	}
	return m.Device.Validate()
}

// Decompose maps a physical byte address to its DRAM coordinates.
//
// Bit layout (low to high): [bank-interleave offset][bank][channel]
// [column chunks][row][rank]. This mirrors the structure of the
// Skylake mapping in the paper's Fig. 6a: consecutive 128 B chunks
// alternate between two banks, consecutive 256 B chunks rotate across
// channels, and a 4 KiB page lands in one row of two banks of one
// rank per channel.
func (m Mapping) Decompose(addr int64) Coord {
	if addr < 0 || addr >= m.TotalBytes() {
		panic(fmt.Sprintf("memctrl: address %#x out of range [0, %#x)", addr, m.TotalBytes()))
	}
	off := int(addr % int64(m.BankInterleave))
	chunk := addr / int64(m.BankInterleave)

	banksInterleaved := 2 // a 4 KiB page interleaves across 2 banks (Fig. 6a)
	bankLow := int(chunk % int64(banksInterleaved))
	chunk /= int64(banksInterleaved)

	ch := int(chunk % int64(m.Channels))
	chunk /= int64(m.Channels)

	// Remaining chunks walk the column space of the (pair of) rows,
	// then rows, then bank groups, then ranks.
	colChunks := m.RowBytes() / m.BankInterleave
	colChunk := int(chunk % int64(colChunks))
	chunk /= int64(colChunks)

	row := int(chunk % int64(m.Device.RowsPerBank))
	chunk /= int64(m.Device.RowsPerBank)

	bankGroups := m.Device.BanksPerChip / banksInterleaved
	bankHigh := int(chunk % int64(bankGroups))
	chunk /= int64(bankGroups)
	if m.XORBankHash {
		bankHigh ^= row % bankGroups
	}

	rank := int(chunk % int64(m.RanksPerChannel))

	return Coord{
		Channel: ch,
		Rank:    rank,
		Bank:    bankHigh*banksInterleaved + bankLow,
		Row:     row,
		Col:     colChunk*m.BankInterleave + off,
	}
}
