package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/obs"
	"alamr/internal/serve"
)

const (
	// copiesPerBurst is how many campaigns of each local spec one burst
	// submits, each under its own seed.
	copiesPerBurst = 2
	// statusEvery is the fixed schedule of the status reads.
	statusEvery = 20 * time.Millisecond
	tenant      = "bench"
)

// submitted is one campaign of a burst, from submit to terminal state.
type submitted struct {
	name string
	spec engine.CampaignSpec
	id   string

	sent, ack, running, done time.Time
	state                    serve.State
	err                      error
	result                   []byte
}

func (s *submitted) turnaround() float64 { return s.done.Sub(s.ack).Seconds() }
func (s *submitted) runS() float64       { return s.done.Sub(s.running).Seconds() }

// serveRun is one serve-mix invocation's daemon and clients.
type serveRun struct {
	b       *bench
	d       *serve.Daemon
	store   string
	specs   map[string]engine.CampaignSpec
	submitC *serve.Client
	statusC *serve.Client
	workers int
}

// burstStats is what one burst measured besides its campaigns.
type burstStats struct {
	wall      float64
	statusMS  []float64
	rejected  int
	cpuS      float64
	alloc     uint64
	gc        uint32
	campaigns []*submitted
}

// runServeWorkload starts an in-process al-serve daemon with the default
// worker count and its store in a scratch directory, and submits bursts of
// every locally runnable canonical spec over HTTP while a second
// connection reads campaign status on a fixed schedule.
func runServeWorkload(b *bench) (*outcome, error) {
	sv := &serveRun{b: b, specs: map[string]engine.CampaignSpec{}, workers: runtime.GOMAXPROCS(0)}
	var ds *dataset.Dataset
	var setups, loadS, specS []float64
	// Set-up is loading the dataset and the specs and starting the daemon,
	// whose store scan finds an empty store. Only the last daemon stays.
	for r := 0; r < setupReps; r++ {
		if sv.d != nil {
			if err := sv.d.Close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if ds, err = dataset.LoadFile(datasetPath); err != nil {
			return nil, err
		}
		t1 := time.Now()
		for _, n := range localSpecs {
			if sv.specs[n], err = loadSpec(n, 0); err != nil {
				return nil, err
			}
		}
		t2 := time.Now()
		if sv.store, err = os.MkdirTemp(b.work, "store-"); err != nil {
			return nil, err
		}
		sv.d, err = serve.New(serve.Config{StoreDir: sv.store, Dataset: ds, Logf: func(string, ...any) {}})
		if err != nil {
			return nil, err
		}
		if err := sv.d.Start(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		loadS = append(loadS, t1.Sub(t0).Seconds())
		specS = append(specS, t2.Sub(t1).Seconds())
	}
	defer sv.d.Close()
	sv.submitC = serve.NewClient(sv.d.Addr())
	sv.statusC = serve.NewClient(sv.d.Addr())

	out := newOutcome()
	// check counts a burst's campaigns and fails the wrong ones; it
	// returns the campaigns that finished correctly.
	check := func(bs burstStats, tag string) []*submitted {
		var ok []*submitted
		for _, c := range bs.campaigns {
			out.attempted++
			err := c.err
			if err == nil && c.state != serve.StateDone {
				err = fmt.Errorf("terminal state %s", c.state)
			}
			if err == nil {
				c.result, err = sv.d.Result(c.id)
			}
			if err == nil {
				err = b.oracle.check(c.name, c.spec, c.result)
			}
			if err != nil {
				out.fail(fmt.Sprintf("%s seed %d %s", c.name, c.spec.Seed, tag), err)
				continue
			}
			ok = append(ok, c)
		}
		return ok
	}

	if !b.trace {
		u0, start := selfUsage(), time.Now()
		var turnaround []float64
		for k := 0; time.Since(start) < b.seconds; k++ {
			bs, err := sv.burst(k)
			if err != nil {
				return nil, err
			}
			for _, c := range check(bs, "") {
				turnaround = append(turnaround, c.turnaround())
			}
		}
		wall, u1 := time.Since(start).Seconds(), selfUsage()
		out.values["setup_s"] = median(setups)
		out.values["campaigns_per_s"] = float64(len(turnaround)) / wall
		out.values["campaign_p50_s"] = median(turnaround)
		out.values["cpu_s_per_campaign"] = (u1.cpuS - u0.cpuS) / float64(out.attempted)
		out.values["peak_rss_mb"] = u1.peakRSSMB
		out.notef("serve-mix: %d campaigns in %.1f s, campaign_p50_s over %d samples", out.attempted, wall, len(turnaround))
		return out, nil
	}

	// Traced run: each burst runs untraced and then again, same seeds,
	// with the obs registry bound and the "sim" lab behind the timing
	// wrapper.
	rec := registerTimingLab()
	var l layerTotals
	var submitS, queueS, runS, statusMS, util []float64
	var rejected, reads, bursts int
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < b.seconds; k++ {
		plainBS, err := sv.burst(k)
		if err != nil {
			return nil, err
		}
		plain := check(plainBS, "")
		var busy float64
		for _, c := range plain {
			submitS = append(submitS, c.ack.Sub(c.sent).Seconds())
			queueS = append(queueS, c.running.Sub(c.ack).Seconds())
			runS = append(runS, c.runS())
			busy += c.runS()
		}
		util = append(util, busy/(float64(sv.workers)*plainBS.wall))
		statusMS = append(statusMS, plainBS.statusMS...)
		rejected += plainBS.rejected
		reads += len(plainBS.statusMS)
		bursts++
		l.addGo(len(plainBS.campaigns), plainBS.wall, plainBS.cpuS, plainBS.alloc, plainBS.gc)

		reg := obs.NewRegistry()
		rec.on.Store(true)
		obs.Enable(reg, nil)
		tracedBS, err := sv.burst(k)
		obs.Disable()
		rec.on.Store(false)
		if err != nil {
			return nil, err
		}
		traced := check(tracedBS, "traced")
		byKey := map[string]*submitted{}
		for _, c := range plain {
			byKey[oracleKey(c.name, c.spec.Seed)] = c
		}
		var tracedRun, onlineRun float64
		var online int
		var ckpt []float64
		for _, c := range traced {
			p, ok := byKey[oracleKey(c.name, c.spec.Seed)]
			if !ok {
				continue
			}
			if !bytes.Equal(p.result, c.result) {
				out.fail(fmt.Sprintf("%s seed %d traced", c.name, c.spec.Seed), errors.New("traced result differs from the untraced one"))
				continue
			}
			l.addCampaign(c.name, p.runS(), c.runS()-p.runS())
			l.addSelections(c.result)
			tracedRun += c.runS()
			if c.name == "replay-rgma" {
				l.addReissue(ds, c.spec, c.result, p.runS())
			}
			if c.spec.Mode == engine.ModeOnline {
				online++
				onlineRun += c.runS()
				if n, err := sv.checkpointBytes(c.id); err == nil {
					ckpt = append(ckpt, float64(n))
				}
			}
		}
		l.addPhases(phaseSums(reg), tracedRun)
		lab, err := retime(rec.take())
		if err != nil {
			return nil, err
		}
		l.addOnline(lab, online, onlineRun, ckpt)
	}
	l.report(out)
	v := out.values
	v["dataset.load_s"] = median(loadS)
	v["engine.spec_load_s"] = median(specS)
	v["serve.submit_s"] = median(submitS)
	v["serve.queue_wait_s"] = median(queueS)
	v["serve.run_s"] = median(runS)
	v["serve.worker_util"] = median(util)
	v["serve.rejected_429"] = float64(rejected)
	v["serve.status_p50_ms"] = median(statusMS)
	v["serve.status_reads"] = float64(reads) / float64(bursts)
	if n, err := dirBytes(sv.store); err == nil && out.attempted > 0 {
		v["serve.store_bytes"] = float64(n) / float64(out.attempted)
	}
	return out, nil
}

// burst submits burst k: copiesPerBurst campaigns of every local spec, in
// spec order, each under its own derived seed, and waits for all of them
// to reach a terminal state while status reads run on their schedule.
func (sv *serveRun) burst(k int) (burstStats, error) {
	var bs burstStats
	for j, name := range localSpecs {
		for c := 0; c < copiesPerBurst; c++ {
			s := sv.specs[name]
			s.Seed = campaignSeed(sv.b.seed, (k*len(localSpecs)+j)*copiesPerBurst+c)
			if s.Online != nil {
				// The daemon checkpoints online campaigns into its store.
				o := *s.Online
				o.CheckpointPath = ""
				s.Online = &o
			}
			bs.campaigns = append(bs.campaigns, &submitted{name: name, spec: s})
		}
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	u0, start := selfUsage(), time.Now()

	var mu sync.Mutex
	var live []string
	setLive := func(id string, on bool) {
		mu.Lock()
		defer mu.Unlock()
		if on {
			live = append(live, id)
			return
		}
		for i, x := range live {
			if x == id {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	stop := make(chan struct{})
	polled := make(chan []float64, 1)
	go func() {
		var lat []float64
		next := 0
		for k := 1; ; k++ {
			due := start.Add(time.Duration(k) * statusEvery)
			select {
			case <-stop:
				polled <- lat
				return
			case <-time.After(time.Until(due)):
			}
			mu.Lock()
			id := ""
			if len(live) > 0 {
				id = live[next%len(live)]
				next++
			}
			mu.Unlock()
			if id == "" {
				continue
			}
			if _, err := sv.statusC.Status(id, 0, 0); err == nil {
				lat = append(lat, float64(time.Since(due))/float64(time.Millisecond))
			}
		}
	}()

	var wg sync.WaitGroup
	for _, c := range bs.campaigns {
		raw, err := c.spec.Marshal()
		if err != nil {
			close(stop)
			<-polled
			return bs, err
		}
		for {
			c.sent = time.Now()
			m, err := sv.submitC.Submit(tenant, "", raw)
			if serve.IsBackpressure(err) {
				bs.rejected++
				time.Sleep(time.Second)
				continue
			}
			if err != nil {
				c.err = err
				break
			}
			c.ack, c.id = time.Now(), m.ID
			setLive(c.id, true)
			wg.Add(1)
			go func(c *submitted) {
				defer wg.Done()
				defer setLive(c.id, false)
				sv.watch(c)
			}(c)
			break
		}
	}
	wg.Wait()
	close(stop)
	bs.statusMS = <-polled
	bs.wall = time.Since(start).Seconds()
	u1 := selfUsage()
	runtime.ReadMemStats(&m1)
	bs.cpuS = u1.cpuS - u0.cpuS
	bs.alloc = m1.TotalAlloc - m0.TotalAlloc
	bs.gc = m1.NumGC - m0.NumGC
	return bs, nil
}

// watch follows one campaign through the daemon's long-poll primitive and
// stamps when it started running and when it reached a terminal state.
func (sv *serveRun) watch(c *submitted) {
	deadline := c.ack.Add(campaignTimeout)
	var seq int64
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			c.err = fmt.Errorf("not terminal after %v", campaignTimeout)
			return
		}
		m, ok := sv.d.WaitChange(c.id, seq, remain)
		if !ok {
			c.err = fmt.Errorf("daemon lost campaign %s", c.id)
			return
		}
		seq = m.Seq
		now := time.Now()
		if m.State != serve.StateQueued && c.running.IsZero() {
			c.running = now
		}
		if m.State.Terminal() {
			c.done, c.state = now, m.State
			return
		}
	}
}

// checkpointBytes is the size of an online campaign's checkpoint in the
// daemon's store.
func (sv *serveRun) checkpointBytes(id string) (int64, error) {
	raw, ok := sv.d.Spec(id)
	if !ok {
		return 0, fmt.Errorf("no spec for %s", id)
	}
	var s engine.CampaignSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return 0, err
	}
	fi, err := os.Stat(s.Online.CheckpointPath)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func dirBytes(root string) (int64, error) {
	var n int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}
