package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dbdc-go/dbdc/internal/index"
	"github.com/dbdc-go/dbdc/internal/model"
)

// Snapshot is one published model version: the global model, the
// classifier built from it, and the epoch metadata. Snapshots are
// immutable — a reader that obtained one keeps classifying against it
// undisturbed while newer versions are published, so no request ever
// observes a torn or partially swapped model.
type Snapshot struct {
	// Version is the registry's strictly monotone publication counter,
	// starting at 1 for the first published model.
	Version uint64
	// Global is the published model (immutable).
	Global *model.GlobalModel
	// Classifier serves reads against Global.
	Classifier *Classifier
	// Published is when the swap happened.
	Published time.Time
}

// Registry is a versioned model registry with lock-free hot swap: training
// rounds (transport.Server, transport.UpdateServer) publish freshly
// rebuilt global models into it, classification readers pick up the
// current snapshot with one atomic pointer load. Publication is
// serialized (classifier construction happens outside the reader path, so
// readers never block on a round in flight), reads are wait-free.
type Registry struct {
	mu  sync.Mutex // serializes publishers
	cur atomic.Pointer[Snapshot]

	// published counts successful Publish calls; rejected counts models
	// that failed validation or classifier construction.
	published atomic.Uint64
	rejected  atomic.Uint64
}

// NewRegistry returns an empty registry. kind is ignored: a classifier
// answers from its coverage grid and takes no index. It stays only because
// the frozen bench/ module calls NewRegistry(""); drop it in the next
// [benchmark] PR.
func NewRegistry(kind index.Kind) *Registry {
	return &Registry{}
}

// Publish validates the model, builds its classifier and atomically swaps
// it in as the new current snapshot. Versions are strictly monotone in
// publication order; the swap itself is a single pointer store, so readers
// switch between complete snapshots only. A model that fails validation or
// classifier construction is rejected and leaves the current snapshot in
// place.
func (r *Registry) Publish(global *model.GlobalModel) (*Snapshot, error) {
	if global == nil {
		r.rejected.Add(1)
		return nil, fmt.Errorf("serve: refusing to publish nil global model")
	}
	if err := global.Validate(); err != nil {
		r.rejected.Add(1)
		return nil, fmt.Errorf("serve: refusing to publish invalid global model: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Build outside the reader path (readers keep serving the previous
	// snapshot), inside the publisher lock (versions stay monotone and
	// version N's classifier is always built from version N's model).
	cls, err := NewClassifier(global)
	if err != nil {
		r.rejected.Add(1)
		return nil, err
	}
	version := uint64(1)
	if prev := r.cur.Load(); prev != nil {
		version = prev.Version + 1
	}
	snap := &Snapshot{
		Version:    version,
		Global:     global,
		Classifier: cls,
		Published:  time.Now(),
	}
	r.cur.Store(snap)
	r.published.Add(1)
	return snap, nil
}

// Current returns the latest snapshot, or nil before the first successful
// Publish. Wait-free; the returned snapshot stays valid (and immutable)
// regardless of later publications.
func (r *Registry) Current() *Snapshot { return r.cur.Load() }

// Version returns the current model version, 0 before the first Publish.
func (r *Registry) Version() uint64 {
	if s := r.cur.Load(); s != nil {
		return s.Version
	}
	return 0
}

// Published returns the number of successful publications.
func (r *Registry) Published() uint64 { return r.published.Load() }

// Rejected returns the number of models refused (validation or classifier
// construction failure).
func (r *Registry) Rejected() uint64 { return r.rejected.Load() }

// PublishFunc returns a callback suitable for transport hooks
// (transport.Server.SetOnGlobal, transport.UpdateServer.SetOnGlobal):
// it publishes every model and reports failures to onErr (nil = dropped
// silently). The transport layer stays ignorant of the serve package;
// commands wire the two together with this adapter.
func (r *Registry) PublishFunc(onErr func(error)) func(*model.GlobalModel) {
	return func(g *model.GlobalModel) {
		if _, err := r.Publish(g); err != nil && onErr != nil {
			onErr(err)
		}
	}
}
