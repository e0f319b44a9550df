// Package faults is the ENA fault-injection engine: deterministic,
// seed-driven perturbation of node configurations (disable GPU chiplets, HBM
// stacks, CPU chiplets, external-memory modules, NoC links) re-simulated to
// produce degraded-mode performance/power deltas, plus a runtime chaos
// injector for the service layer (worker panics, artificial latency,
// context stalls).
//
// The paper's exascale node only makes sense under failure (§VII): with
// ~100,000 nodes, component faults are continuous background events, and the
// machine's realized throughput depends on how gracefully a node degrades —
// not just on the binary up/down model behind checkpoint/restart analysis.
// This package quantifies that: ResilienceSurface sweeps progressive
// component failures, and internal/ras folds the resulting degraded
// throughputs into expected-performance estimates.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Component classifies the failable hardware units of a node.
type Component int

const (
	// GPUChiplet kills a GPU die and the HBM stack on top of it.
	GPUChiplet Component = iota
	// HBMStack kills one in-package DRAM stack; the host chiplet's CUs
	// survive (they fetch remotely) but the stack's bandwidth and
	// capacity are lost.
	HBMStack
	// CPUChiplet kills one CPU die (four cores).
	CPUChiplet
	// ExtModule kills one external-memory module; the point-to-point
	// chain topology makes every module behind it unreachable (§II-B2).
	ExtModule
	// NoCLink kills one interposer-to-interposer link; traffic reroutes
	// over surviving links (detailed NoC simulation only — the analytic
	// model has no per-link resolution).
	NoCLink
	// NodeUnit kills a whole node of the machine. Node entries are
	// machine-scope: Apply (which degrades a single node's configuration)
	// rejects them; internal/fabric resolves them against an inter-node
	// topology and reroutes the collectives around the victims.
	NodeUnit
)

// components is the canonical ordering of component classes in masks.
var components = []Component{GPUChiplet, HBMStack, CPUChiplet, ExtModule, NoCLink, NodeUnit}

// String returns the mask-grammar name of the component class.
func (c Component) String() string {
	switch c {
	case GPUChiplet:
		return "gpu"
	case HBMStack:
		return "hbm"
	case CPUChiplet:
		return "cpu"
	case ExtModule:
		return "ext"
	case NoCLink:
		return "link"
	case NodeUnit:
		return "node"
	default:
		return fmt.Sprintf("Component(%d)", int(c))
	}
}

// ParseComponent resolves a component-class name.
func ParseComponent(s string) (Component, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "gpu":
		return GPUChiplet, nil
	case "hbm":
		return HBMStack, nil
	case "cpu":
		return CPUChiplet, nil
	case "ext":
		return ExtModule, nil
	case "link":
		return NoCLink, nil
	case "node":
		return NodeUnit, nil
	}
	return 0, fmt.Errorf("faults: unknown component %q (want gpu, hbm, cpu, ext, link or node)", s)
}

// Entry is one mask element: either count-based (Count random units of the
// class, chosen by the injection seed) or targeted at a specific unit.
type Entry struct {
	Comp Component
	// Count > 0 requests that many seed-chosen units of the class fail.
	// Count == 0 means the entry targets a specific unit via the fields
	// below.
	Count int
	// Index targets a gpu/hbm/cpu unit.
	Index int
	// Chain/Module target an external module (ext@chain.module).
	Chain, Module int
	// A/B target a NoC link by its interposer positions (link@a-b).
	A, B int
}

// targeted reports whether the entry names a specific unit.
func (e Entry) targeted() bool { return e.Count == 0 }

// String renders the entry in mask grammar.
func (e Entry) String() string {
	if !e.targeted() {
		return fmt.Sprintf("%s:%d", e.Comp, e.Count)
	}
	switch e.Comp {
	case ExtModule:
		return fmt.Sprintf("ext@%d.%d", e.Chain, e.Module)
	case NoCLink:
		return fmt.Sprintf("link@%d-%d", e.A, e.B)
	default:
		return fmt.Sprintf("%s@%d", e.Comp, e.Index)
	}
}

// Mask is a parsed fault specification: which components fail, either by
// explicit target or as seed-chosen counts per class.
//
// Grammar (comma-separated, case-insensitive, whitespace-tolerant):
//
//	gpu:2          two seed-chosen GPU chiplets fail
//	gpu@3          GPU chiplet 3 fails
//	hbm:1  hbm@0   HBM stacks, by count or index
//	cpu:1  cpu@2   CPU chiplets
//	ext:2  ext@1.2 external modules (chain.module)
//	link:1 link@0-5  interposer links (position pair)
//	node:3 node@17 whole machine nodes (machine scope; see SplitNode)
//
// The empty string is the healthy node.
type Mask struct {
	Entries []Entry
}

// Empty reports whether the mask injects nothing.
func (m Mask) Empty() bool { return len(m.Entries) == 0 }

// ParseMask parses the fault-mask grammar. The returned mask is canonical:
// duplicate targets are deduplicated, per-class counts are merged, and
// entries are sorted (class order gpu, hbm, cpu, ext, link; targeted entries
// before the class's count entry) — so String round-trips and equal fault
// sets hash identically regardless of spelling.
func ParseMask(s string) (Mask, error) {
	var m Mask
	for _, tok := range strings.Split(s, ",") {
		tok = strings.ToLower(strings.TrimSpace(tok))
		if tok == "" {
			continue
		}
		var e Entry
		switch {
		case strings.Contains(tok, ":"):
			name, arg, _ := strings.Cut(tok, ":")
			comp, err := ParseComponent(name)
			if err != nil {
				return Mask{}, err
			}
			n, err := strconv.Atoi(strings.TrimSpace(arg))
			if err != nil || n <= 0 {
				return Mask{}, fmt.Errorf("faults: bad count in %q (want %s:<positive int>)", tok, comp)
			}
			e = Entry{Comp: comp, Count: n}
		case strings.Contains(tok, "@"):
			name, arg, _ := strings.Cut(tok, "@")
			comp, err := ParseComponent(name)
			if err != nil {
				return Mask{}, err
			}
			arg = strings.TrimSpace(arg)
			e = Entry{Comp: comp}
			switch comp {
			case ExtModule:
				c, mm, ok := strings.Cut(arg, ".")
				if !ok {
					return Mask{}, fmt.Errorf("faults: bad target in %q (want ext@<chain>.<module>)", tok)
				}
				ci, err1 := strconv.Atoi(c)
				mi, err2 := strconv.Atoi(mm)
				if err1 != nil || err2 != nil || ci < 0 || mi < 0 {
					return Mask{}, fmt.Errorf("faults: bad target in %q (want ext@<chain>.<module>)", tok)
				}
				e.Chain, e.Module = ci, mi
			case NoCLink:
				a, b, ok := strings.Cut(arg, "-")
				if !ok {
					return Mask{}, fmt.Errorf("faults: bad target in %q (want link@<a>-<b>)", tok)
				}
				ai, err1 := strconv.Atoi(a)
				bi, err2 := strconv.Atoi(b)
				if err1 != nil || err2 != nil || ai < 0 || bi < 0 || ai == bi {
					return Mask{}, fmt.Errorf("faults: bad target in %q (want link@<a>-<b>, a != b)", tok)
				}
				if ai > bi {
					ai, bi = bi, ai
				}
				e.A, e.B = ai, bi
			default:
				i, err := strconv.Atoi(arg)
				if err != nil || i < 0 {
					return Mask{}, fmt.Errorf("faults: bad target in %q (want %s@<index>)", tok, comp)
				}
				e.Index = i
			}
		default:
			return Mask{}, fmt.Errorf("faults: bad mask token %q (want <comp>:<count> or <comp>@<target>)", tok)
		}
		m.Entries = append(m.Entries, e)
	}
	m.canonicalize()
	return m, nil
}

// MustMask is ParseMask for trusted literals (tests, experiments).
func MustMask(s string) Mask {
	m, err := ParseMask(s)
	if err != nil {
		panic(err)
	}
	return m
}

// canonicalize dedups targets, merges per-class counts and sorts entries.
func (m *Mask) canonicalize() {
	counts := map[Component]int{}
	seen := map[string]bool{}
	var targeted []Entry
	for _, e := range m.Entries {
		if !e.targeted() {
			counts[e.Comp] += e.Count
			continue
		}
		key := e.String()
		if !seen[key] {
			seen[key] = true
			targeted = append(targeted, e)
		}
	}
	sort.Slice(targeted, func(i, j int) bool {
		a, b := targeted[i], targeted[j]
		if a.Comp != b.Comp {
			return a.Comp < b.Comp
		}
		if a.Chain != b.Chain {
			return a.Chain < b.Chain
		}
		if a.Module != b.Module {
			return a.Module < b.Module
		}
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		return a.Index < b.Index
	})
	out := make([]Entry, 0, len(targeted)+len(counts))
	for _, comp := range components {
		for _, e := range targeted {
			if e.Comp == comp {
				out = append(out, e)
			}
		}
		if n := counts[comp]; n > 0 {
			out = append(out, Entry{Comp: comp, Count: n})
		}
	}
	m.Entries = out
}

// SplitNode separates the machine-scope node entries from the node-local
// remainder: node fetches whole-node failures (consumed by internal/fabric),
// local everything Apply can degrade a single node's configuration with.
// Both halves stay canonical.
func (m Mask) SplitNode() (node, local Mask) {
	for _, e := range m.Entries {
		if e.Comp == NodeUnit {
			node.Entries = append(node.Entries, e)
		} else {
			local.Entries = append(local.Entries, e)
		}
	}
	return node, local
}

// String renders the canonical mask; it round-trips through ParseMask.
func (m Mask) String() string {
	parts := make([]string, len(m.Entries))
	for i, e := range m.Entries {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}
