package dse

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"ena/internal/arch"
)

// Axis spec keys, in canonical emission order. The three classic axes are
// required; the packaging axes are optional.
const (
	axisCUs      = "cus"
	axisFreq     = "freq"
	axisBW       = "bw"
	axisChiplets = "chiplets"
	axisHBM      = "hbm"
	axisExtMod   = "extmod"
)

// MaxSpacePoints bounds a grid's point count. It is about ten times the
// 13,230-point packaging space, and keeps one exhaustive sweep's points and
// evaluations in the tens of MiB: an unchecked product of six axis lengths
// could ask a replica for more memory than it has, or overflow int.
const MaxSpacePoints = 1 << 17

// Validate checks the space is a well-formed grid: the three classic axes
// must be non-empty, and every axis present must hold strictly positive,
// finite, duplicate-free values. A duplicated axis value would silently
// enumerate the same design point twice, double-counting it in the MeanScore
// normalization; empty or non-positive axes produce degenerate or invalid
// configurations. The packaging axes may be empty (meaning the single paper
// default). GPU chiplet counts are at most arch.MaxCUsPerNode (a larger
// count always leaves a chiplet with no CUs), external-chain depths at most
// arch.MaxModulesPerChain, frequencies and bandwidths within their arch
// bounds (arch.MinGPUFreqMHz..MaxGPUFreqMHz and
// arch.MinInPackageBWTBps..MaxInPackageBWTBps), and the grid at most
// MaxSpacePoints points.
func (s Space) Validate() error {
	// The point count first: it reads only the axis lengths, so a huge axis
	// is rejected before its values are scanned. An empty axis is counted
	// as one value here and rejected below.
	gcs, hbs, ems := s.packagingAxes()
	n := 1
	for _, l := range []int{len(gcs), len(hbs), len(ems), len(s.CUs), len(s.FreqsMHz), len(s.BWsTBps)} {
		if l > MaxSpacePoints/n {
			return fmt.Errorf("dse: space has more than %d points", MaxSpacePoints)
		}
		n *= max(l, 1)
	}
	if err := validateIntAxis(axisCUs, s.CUs, true); err != nil {
		return err
	}
	if err := validateFloatAxis(axisFreq, s.FreqsMHz, true); err != nil {
		return err
	}
	if err := validateFloatAxis(axisBW, s.BWsTBps, true); err != nil {
		return err
	}
	if err := validateIntAxis(axisChiplets, s.GPUChiplets, false); err != nil {
		return err
	}
	if err := validateFloatAxis(axisHBM, s.HBMStackGBs, false); err != nil {
		return err
	}
	if err := validateIntAxis(axisExtMod, s.ExtModules, false); err != nil {
		return err
	}
	return nil
}

// Validate applies the space axis rules to one point, as a worker receiving
// a listed point must: positive, finite, bounded classic fields, and
// packaging fields that are either zero (the paper default) or valid axis
// values.
func (p Point) Validate() error {
	if err := checkInt(axisCUs, p.CUs); err != nil {
		return err
	}
	if err := checkFloat(axisFreq, p.FreqMHz); err != nil {
		return err
	}
	if err := checkFloat(axisBW, p.BWTBps); err != nil {
		return err
	}
	if p.GPUChiplets != 0 {
		if err := checkInt(axisChiplets, p.GPUChiplets); err != nil {
			return err
		}
	}
	if p.HBMStackGB != 0 {
		if err := checkFloat(axisHBM, p.HBMStackGB); err != nil {
			return err
		}
	}
	if p.ExtModules != 0 {
		return checkInt(axisExtMod, p.ExtModules)
	}
	return nil
}

// intAxisMax holds the integer axes' upper bounds and floatAxisRange the
// float axes' bounds beyond positivity; the CU and HBM capacity axes are
// unbounded (an out-of-budget point is infeasible, not unrepresentable).
var (
	intAxisMax = map[string]int{
		axisChiplets: arch.MaxCUsPerNode,
		axisExtMod:   arch.MaxModulesPerChain,
	}
	floatAxisRange = map[string]struct{ min, max float64 }{
		axisFreq: {arch.MinGPUFreqMHz, arch.MaxGPUFreqMHz},
		axisBW:   {arch.MinInPackageBWTBps, arch.MaxInPackageBWTBps},
	}
)

func checkInt(name string, v int) error {
	if v <= 0 {
		return fmt.Errorf("dse: space axis %q has non-positive value %d", name, v)
	}
	if max, ok := intAxisMax[name]; ok && v > max {
		return fmt.Errorf("dse: space axis %q value %d exceeds the limit of %d", name, v, max)
	}
	return nil
}

func checkFloat(name string, v float64) error {
	if !(v > 0) || math.IsInf(v, 0) {
		return fmt.Errorf("dse: space axis %q has non-positive or non-finite value %v", name, v)
	}
	r, ok := floatAxisRange[name]
	if ok && v < r.min {
		return fmt.Errorf("dse: space axis %q value %v is below the limit of %v", name, v, r.min)
	}
	if ok && v > r.max {
		return fmt.Errorf("dse: space axis %q value %v exceeds the limit of %v", name, v, r.max)
	}
	return nil
}

func validateIntAxis(name string, vals []int, required bool) error {
	if len(vals) == 0 {
		if required {
			return fmt.Errorf("dse: space axis %q is empty", name)
		}
		return nil
	}
	seen := make(map[int]bool, len(vals))
	for _, v := range vals {
		if err := checkInt(name, v); err != nil {
			return err
		}
		if seen[v] {
			return fmt.Errorf("dse: space axis %q has duplicate value %d", name, v)
		}
		seen[v] = true
	}
	return nil
}

func validateFloatAxis(name string, vals []float64, required bool) error {
	if len(vals) == 0 {
		if required {
			return fmt.Errorf("dse: space axis %q is empty", name)
		}
		return nil
	}
	seen := make(map[float64]bool, len(vals))
	for _, v := range vals {
		if err := checkFloat(name, v); err != nil {
			return err
		}
		if seen[v] {
			return fmt.Errorf("dse: space axis %q has duplicate value %v", name, v)
		}
		seen[v] = true
	}
	return nil
}

// Spec renders the space as its canonical spec string:
// "cus=...;freq=...;bw=..." with comma-separated ascending values, followed
// by "chiplets=", "hbm=" and "extmod=" segments only for packaging axes that
// are present. ParseSpace(s.Spec()) returns s for any space that came out of
// ParseSpace (the canonical form is a fixed point).
func (s Space) Spec() string {
	var b strings.Builder
	b.WriteString(axisCUs + "=")
	writeInts(&b, s.CUs)
	b.WriteString(";" + axisFreq + "=")
	writeFloats(&b, s.FreqsMHz)
	b.WriteString(";" + axisBW + "=")
	writeFloats(&b, s.BWsTBps)
	if len(s.GPUChiplets) > 0 {
		b.WriteString(";" + axisChiplets + "=")
		writeInts(&b, s.GPUChiplets)
	}
	if len(s.HBMStackGBs) > 0 {
		b.WriteString(";" + axisHBM + "=")
		writeFloats(&b, s.HBMStackGBs)
	}
	if len(s.ExtModules) > 0 {
		b.WriteString(";" + axisExtMod + "=")
		writeInts(&b, s.ExtModules)
	}
	return b.String()
}

func writeInts(b *strings.Builder, vals []int) {
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
}

func writeFloats(b *strings.Builder, vals []float64) {
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
}

// ParseSpace parses a space spec string ("cus=...;freq=...;bw=..." plus
// optional "chiplets=", "hbm=", "extmod=" segments) into a validated Space.
// Axis values are sorted ascending — the canonicalization — and the result
// passes Validate (duplicates, non-positive and non-finite values are
// rejected, as are unknown or repeated axis names). The empty classic axes
// rule applies: all of cus/freq/bw must be present.
func ParseSpace(spec string) (Space, error) {
	var s Space
	seen := make(map[string]bool, 6)
	for _, seg := range strings.Split(spec, ";") {
		name, vals, ok := strings.Cut(seg, "=")
		if !ok {
			return Space{}, fmt.Errorf("dse: space spec segment %q is not name=values", seg)
		}
		name = strings.TrimSpace(name)
		if seen[name] {
			return Space{}, fmt.Errorf("dse: space spec repeats axis %q", name)
		}
		seen[name] = true
		var err error
		switch name {
		case axisCUs:
			s.CUs, err = parseInts(vals)
		case axisFreq:
			s.FreqsMHz, err = parseFloats(vals)
		case axisBW:
			s.BWsTBps, err = parseFloats(vals)
		case axisChiplets:
			s.GPUChiplets, err = parseInts(vals)
		case axisHBM:
			s.HBMStackGBs, err = parseFloats(vals)
		case axisExtMod:
			s.ExtModules, err = parseInts(vals)
		default:
			return Space{}, fmt.Errorf("dse: unknown space axis %q", name)
		}
		if err != nil {
			return Space{}, fmt.Errorf("dse: space axis %q: %w", name, err)
		}
	}
	if err := s.Validate(); err != nil {
		return Space{}, err
	}
	return s, nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad value %q", p)
		}
		out = append(out, v)
	}
	sort.Ints(out)
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", p)
		}
		out = append(out, v)
	}
	sort.Float64s(out)
	return out, nil
}
