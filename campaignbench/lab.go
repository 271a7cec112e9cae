package main

import (
	"sync"
	"sync/atomic"
	"time"

	"alamr/internal/amr"
	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/faults"
	"alamr/internal/online"
)

// SimLab's defaults for the reference solve and the emulated forest
// (online.NewSimLab), which the re-timing below must match.
const (
	simRefNx    = 64
	simRefTEnd  = 0.15
	simRefSnaps = 6
	simRootsX   = 8
	simRootsY   = 4
)

// timingLab wraps the simulation-backed lab and times every Run. It
// forwards faults.Resumable, so campaign checkpoints keep carrying the
// lab's state and a traced campaign's result stays bitwise the untraced
// one.
type timingLab struct {
	inner *online.SimLab
	spec  engine.LabSpec

	mu      sync.Mutex
	runs    int
	runTime time.Duration
	touched []dataset.Combo
}

var _ faults.Resumable = (*timingLab)(nil)

func newSimLab(s engine.LabSpec) *online.SimLab {
	return online.NewSimLab(online.SimLabConfig{
		RefNx:    s.RefNx,
		RefTEnd:  s.RefTEnd,
		RefSnaps: s.RefSnaps,
		Seed:     s.Seed,
	})
}

func (l *timingLab) Run(c dataset.Combo) (dataset.Job, error) {
	t0 := time.Now()
	job, err := l.inner.Run(c)
	d := time.Since(t0)
	l.mu.Lock()
	l.runs++
	l.runTime += d
	l.touched = append(l.touched, c)
	l.mu.Unlock()
	return job, err
}

func (l *timingLab) Candidates() []dataset.Combo { return l.inner.Candidates() }

func (l *timingLab) LabState() ([]byte, error) { return l.inner.LabState() }

func (l *timingLab) RestoreLabState(state []byte) error { return l.inner.RestoreLabState(state) }

// labRecorder owns the "sim" lab registration of a traced run. While on,
// every lab the engine builds is a timingLab the recorder keeps; while
// off, the registration builds the plain SimLab exactly as
// internal/online registers it.
type labRecorder struct {
	on   atomic.Bool
	mu   sync.Mutex
	labs []*timingLab
}

func registerTimingLab() *labRecorder {
	r := &labRecorder{}
	engine.RegisterLab("sim", func(s engine.LabSpec, _ engine.LabDeps) (engine.Lab, error) {
		if !r.on.Load() {
			return newSimLab(s), nil
		}
		l := &timingLab{inner: newSimLab(s), spec: s}
		r.mu.Lock()
		r.labs = append(r.labs, l)
		r.mu.Unlock()
		return l, nil
	})
	return r
}

// take returns the labs built since the last take.
func (r *labRecorder) take() []*timingLab {
	r.mu.Lock()
	defer r.mu.Unlock()
	labs := r.labs
	r.labs = nil
	return labs
}

// retime sums the labs' Run timings and times the amr layer directly:
// amr.ReferenceRun once per distinct reference the labs solved, and
// amr.Emulate on every configuration they ran. It checks that each lab
// solved exactly the references its runs touched.
func retime(labs []*timingLab) (labTotals, error) {
	type refKey struct {
		r0, rhoin, tEnd float64
		nx, snaps       int
	}
	var t labTotals
	refs := map[refKey]*amr.Reference{}
	for _, l := range labs {
		l.mu.Lock()
		touched := append([]dataset.Combo(nil), l.touched...)
		t.Runs += l.runs
		t.RunS += l.runTime.Seconds()
		l.mu.Unlock()
		solves := l.inner.NumReferenceRuns()
		t.RefSolves += solves

		nx, tEnd, snaps := l.spec.RefNx, l.spec.RefTEnd, l.spec.RefSnaps
		if nx <= 0 {
			nx = simRefNx
		}
		if tEnd <= 0 {
			tEnd = simRefTEnd
		}
		if snaps <= 0 {
			snaps = simRefSnaps
		}
		distinct := map[refKey]bool{}
		for _, c := range touched {
			k := refKey{c.R0, c.RhoIn, tEnd, nx, snaps}
			distinct[k] = true
			ref, ok := refs[k]
			if !ok {
				t0 := time.Now()
				var err error
				ref, err = amr.ReferenceRun(amr.ShockBubble{R0: c.R0, RhoIn: c.RhoIn}, nx, tEnd, snaps)
				if err != nil {
					return t, err
				}
				t.RefRunS += time.Since(t0).Seconds()
				t.RefCalls++
				refs[k] = ref
			}
			t0 := time.Now()
			st, err := amr.Emulate(ref, amr.EmulateConfig{
				Mx: c.Mx, MaxLevel: c.MaxLevel, RootsX: simRootsX, RootsY: simRootsY,
			})
			if err != nil {
				return t, err
			}
			t.EmulateS += time.Since(t0).Seconds()
			t.EmulateCall++
			t.CellUpdates += st.CellUpdates
		}
		if len(distinct) != solves {
			t.Unfaithful++
		}
	}
	return t, nil
}
