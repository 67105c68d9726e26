package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// StormSpec schedules refresh storms on the window clock: starting at
// window Phase, every Period windows the first Len windows are storm
// windows (refresh management owns the DRAM, the NMA is offered zero
// slots). Period <= 0 or Len <= 0 disables storms; Len is clamped to
// Period.
type StormSpec struct {
	Period, Len, Phase int64
}

// active reports whether window w is a storm window.
func (s StormSpec) active(w int64) bool {
	if s.Period <= 0 || s.Len <= 0 {
		return false
	}
	off := w - s.Phase
	if off < 0 {
		return false
	}
	return off%s.Period < s.Len
}

// countIn counts storm windows in [lo, hi) in closed form.
func (s StormSpec) countIn(lo, hi int64) int64 {
	if s.Period <= 0 || s.Len <= 0 || hi <= lo {
		return 0
	}
	// upTo counts storm windows in the first n windows after Phase.
	upTo := func(n int64) int64 {
		if n <= 0 {
			return 0
		}
		full := n / s.Period
		extra := n % s.Period
		if extra > s.Len {
			extra = s.Len
		}
		return full*s.Len + extra
	}
	return upTo(hi-s.Phase) - upTo(lo-s.Phase)
}

// Plan is one chaos schedule: a seed, a firing probability per
// injection site, and a refresh storm schedule. Plans are parsed from
// the -chaos CLI spec (ParseSpec) and evaluated by an Injector.
type Plan struct {
	Seed  int64
	Probs [NumSites]float64
	Storm StormSpec
}

// normalize clamps the plan into its valid domain.
func (p *Plan) normalize() {
	for i := range p.Probs {
		if p.Probs[i] < 0 {
			p.Probs[i] = 0
		}
		if p.Probs[i] > 1 {
			p.Probs[i] = 1
		}
	}
	if p.Storm.Period > 0 && p.Storm.Len > p.Storm.Period {
		p.Storm.Len = p.Storm.Period
	}
	if p.Storm.Phase < 0 {
		p.Storm.Phase = 0
	}
}

// siteByName maps a spec-grammar name back to its Site.
func siteByName(name string) (Site, bool) {
	for i := Site(0); i < NumSites; i++ {
		if i.String() == name {
			return i, true
		}
	}
	return 0, false
}

// ParseSpec parses a -chaos specification into a Plan seeded with seed.
//
// Grammar (comma-separated fields, evaluated left to right):
//
//	preset            "ci-default" (the CI gate's mixed plan) or
//	                  "off"/"none" (empty plan); a preset may only be
//	                  the first field and later fields override it
//	site=p            firing probability in [0,1] for an injection
//	                  site: queue-full, ecc-single, ecc-multi
//	storm=period:len  refresh storms: every period windows, len storm
//	                  windows (both positive); an optional third
//	                  :phase field (non-negative) delays the first storm
//
// Example: -chaos "queue-full=0.2,ecc-multi=0.05,storm=4096:512"
func ParseSpec(spec string, seed int64) (Plan, error) {
	var p Plan
	p.Seed = seed
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, fmt.Errorf("fault: empty chaos spec")
	}
	fields := strings.Split(spec, ",")
	for i, f := range fields {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		if !strings.Contains(f, "=") {
			if i != 0 {
				return p, fmt.Errorf("fault: preset %q must be the first field of the chaos spec", f)
			}
			pre, ok := preset(f)
			if !ok {
				return p, fmt.Errorf("fault: unknown chaos preset %q", f)
			}
			pre.Seed = seed
			p = pre
			continue
		}
		k, v, _ := strings.Cut(f, "=")
		if err := p.applyField(strings.TrimSpace(k), strings.TrimSpace(v)); err != nil {
			return p, err
		}
	}
	p.normalize()
	return p, nil
}

// applyField sets one k=v field of the spec grammar on the plan.
func (p *Plan) applyField(k, v string) error {
	if k == "storm" {
		parts := strings.Split(v, ":")
		if len(parts) != 2 && len(parts) != 3 {
			return fmt.Errorf("fault: storm spec %q wants period:len[:phase]", v)
		}
		nums := make([]int64, len(parts))
		for i, s := range parts {
			n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				return fmt.Errorf("fault: bad storm field %q: %v", s, err)
			}
			nums[i] = n
		}
		p.Storm = StormSpec{Period: nums[0], Len: nums[1]}
		if len(nums) == 3 {
			p.Storm.Phase = nums[2]
		}
		if p.Storm.Period <= 0 || p.Storm.Len <= 0 || p.Storm.Phase < 0 {
			return fmt.Errorf("fault: storm spec %q wants a positive period and len and a non-negative phase", v)
		}
		return nil
	}
	site, ok := siteByName(k)
	if !ok || site == SiteRefreshStorm {
		return fmt.Errorf("fault: unknown injection site %q", k)
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return fmt.Errorf("fault: bad probability %q for site %s: %v", v, k, err)
	}
	if f < 0 || f > 1 {
		return fmt.Errorf("fault: probability %g for site %s outside [0,1]", f, k)
	}
	p.Probs[site] = f
	return nil
}

// preset returns a named canned plan.
func preset(name string) (Plan, bool) {
	var p Plan
	switch name {
	case "off", "none":
		return p, true
	case "ci-default":
		// The CI chaos gate: every site fires and storms recur a
		// handful of times per retention period.
		p.Probs[SiteQueueFull] = 0.10
		p.Probs[SiteECCSingle] = 0.04
		p.Probs[SiteECCMulti] = 0.02
		p.Storm = StormSpec{Period: 2048, Len: 256}
		return p, true
	}
	return p, false
}
