// Package serve implements the campaign-serving daemon behind cmd/al-serve:
// an HTTP/JSON front end that accepts CampaignSpec submissions, a bounded
// worker pool that schedules many concurrent campaigns with per-tenant
// fair-share and priority lanes, and an on-disk store that makes every
// campaign durable — a SIGKILL'd daemon restarts and resumes all in-flight
// campaigns from their last checkpoint, bitwise identical to an uninterrupted
// run.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"alamr/internal/engine"
)

// State is one node of the campaign state machine. Transitions:
//
//	queued → running → done | failed | cancelled
//	queued → cancelled                         (cancelled before dispatch)
//	running → queued                           (daemon restart: requeued)
//
// The terminal states are never left.
type State string

// Campaign states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// valid reports whether s is a known state (used when loading state files).
func (s State) valid() bool {
	switch s {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Priority lanes, strongest first. The scheduler drains lanes strictly in
// this order; fair-share across tenants applies within a lane.
var Priorities = []string{"high", "normal", "low"}

// DefaultPriority is assumed when a submission names none.
const DefaultPriority = "normal"

// ValidPriority reports whether p names a priority lane.
func ValidPriority(p string) bool {
	for _, q := range Priorities {
		if p == q {
			return true
		}
	}
	return false
}

// Meta is the persistent, client-visible record of one campaign: identity,
// scheduling attributes, and the state machine. Seq increases on every
// mutation and drives the long-poll status endpoint. Meta carries no
// timestamps: the store's contents are a pure function of the submitted
// specs, which is what makes killed-and-restarted runs bitwise comparable
// to uninterrupted ones.
type Meta struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Priority string `json:"priority"`
	State    State  `json:"state"`
	// Error holds the failure message for StateFailed campaigns.
	Error string `json:"error,omitempty"`
	// Seq is the mutation counter: bump on every state change. Status
	// long-polls hand back the last Seq they saw and block until it grows.
	Seq int64 `json:"seq"`
}

// Store is the on-disk campaign store. Layout, one directory per campaign:
//
//	<root>/<id>/spec.json       canonical CampaignSpec (provenance)
//	<root>/<id>/state.json      Meta record, rewritten atomically per transition
//	<root>/<id>/result.json     canonical result, written before the terminal state
//	<root>/<id>/checkpoint.ckpt online-mode engine checkpoint (resume source)
//
// All writes go through engine.WriteFileAtomic (temp file + rename in the
// campaign's directory), the same path the online checkpoints take: a
// crash leaves either the old file or the new one, never a torn mix.
type Store struct {
	root string
	mu   sync.Mutex
	next int // next numeric id suffix
}

// OpenStore opens (creating if necessary) the store rooted at dir and scans
// existing campaign directories so newly issued IDs never collide.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: opening store: %w", err)
	}
	st := &Store{root: dir, next: 1}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: scanning store: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if n, ok := parseID(e.Name()); ok && n >= st.next {
			st.next = n + 1
		}
	}
	return st, nil
}

// Root returns the store's root directory.
func (st *Store) Root() string { return st.root }

// NewID issues the next campaign ID (c000001, c000002, ...). IDs are
// sequential so directory listings sort in submission order.
func (st *Store) NewID() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	id := fmt.Sprintf("c%06d", st.next)
	st.next++
	return id
}

func parseID(name string) (int, bool) {
	if !strings.HasPrefix(name, "c") || len(name) != 7 {
		return 0, false
	}
	n, err := strconv.Atoi(name[1:])
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// Dir returns the campaign's directory.
func (st *Store) Dir(id string) string { return filepath.Join(st.root, id) }

// CheckpointPath returns where the campaign's engine checkpoint lives. The
// daemon injects it into online-mode specs at submission so a restarted
// daemon resumes from it.
func (st *Store) CheckpointPath(id string) string {
	return filepath.Join(st.Dir(id), "checkpoint.ckpt")
}

// WriteSpec creates the campaign directory and persists the canonical spec
// bytes. Called exactly once, at submission.
func (st *Store) WriteSpec(id string, spec []byte) error {
	dir := st.Dir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: creating campaign dir: %w", err)
	}
	if err := engine.WriteFileAtomic(filepath.Join(dir, "spec.json"), spec); err != nil {
		return fmt.Errorf("serve: writing spec: %w", err)
	}
	return nil
}

// WriteState persists the Meta record atomically.
func (st *Store) WriteState(m Meta) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encoding state: %w", err)
	}
	if err := engine.WriteFileAtomic(filepath.Join(st.Dir(m.ID), "state.json"), append(data, '\n')); err != nil {
		return fmt.Errorf("serve: writing state: %w", err)
	}
	return nil
}

// WriteResult persists the canonical result bytes atomically. Written
// before the terminal state transition, so a crash in between reruns the
// campaign and rewrites an identical file.
func (st *Store) WriteResult(id string, data []byte) error {
	if err := engine.WriteFileAtomic(filepath.Join(st.Dir(id), "result.json"), data); err != nil {
		return fmt.Errorf("serve: writing result: %w", err)
	}
	return nil
}

// ReadSpec returns the stored canonical spec bytes.
func (st *Store) ReadSpec(id string) ([]byte, error) {
	return os.ReadFile(filepath.Join(st.Dir(id), "spec.json"))
}

// ReadState returns the stored Meta record.
func (st *Store) ReadState(id string) (Meta, error) {
	data, err := os.ReadFile(filepath.Join(st.Dir(id), "state.json"))
	if err != nil {
		return Meta{}, err
	}
	var m Meta
	if err := json.Unmarshal(data, &m); err != nil {
		return Meta{}, fmt.Errorf("serve: decoding state of %s: %w", id, err)
	}
	if m.ID != id || !m.State.valid() {
		return Meta{}, fmt.Errorf("serve: state of %s is inconsistent (id %q, state %q)", id, m.ID, m.State)
	}
	return m, nil
}

// ReadResult returns the stored result bytes, or os.ErrNotExist before the
// campaign finished.
func (st *Store) ReadResult(id string) ([]byte, error) {
	return os.ReadFile(filepath.Join(st.Dir(id), "result.json"))
}

// Stored is one campaign as recovered from disk.
type Stored struct {
	Meta Meta
	Spec []byte
}

// LoadAll recovers every campaign from disk, sorted by ID. Directories with
// unreadable or inconsistent records are reported as an error (the store is
// the system of record; silently dropping a campaign would lose work).
func (st *Store) LoadAll() ([]Stored, error) {
	entries, err := os.ReadDir(st.root)
	if err != nil {
		return nil, fmt.Errorf("serve: scanning store: %w", err)
	}
	var out []Stored
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, ok := parseID(e.Name()); !ok {
			continue
		}
		meta, err := st.ReadState(e.Name())
		if err != nil {
			return nil, fmt.Errorf("serve: recovering %s: %w", e.Name(), err)
		}
		spec, err := st.ReadSpec(e.Name())
		if err != nil {
			return nil, fmt.Errorf("serve: recovering %s: %w", e.Name(), err)
		}
		out = append(out, Stored{Meta: meta, Spec: spec})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Meta.ID < out[j].Meta.ID })
	return out, nil
}

// MarshalResult serializes a campaign result in the canonical form the
// store persists (indented, trailing newline). Tests compare a daemon's
// result.json bitwise against MarshalResult of a direct engine run.
func MarshalResult(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("serve: encoding result: %w", err)
	}
	return append(data, '\n'), nil
}

// ErrQueueFull is returned by Submit when the scheduler queue is at
// capacity; the HTTP layer maps it to 429 + Retry-After.
var ErrQueueFull = errors.New("serve: queue full")
