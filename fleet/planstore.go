package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"effitest"
)

// PlanStore is a content-addressed in-memory store of plan artifacts, the
// backing for effitestd's plan upload/download endpoints. Artifacts are
// validated on Put (they must decode as binary plan artifacts) and keyed by
// the SHA-256 of their bytes, so an upload is idempotent and a downloaded
// artifact is verifiably the uploaded one.
type PlanStore struct {
	mu    sync.Mutex
	blobs map[string][]byte
}

// NewPlanStore builds an empty store.
func NewPlanStore() *PlanStore {
	return &PlanStore{blobs: map[string][]byte{}}
}

// Put validates and stores a binary plan artifact (effitest.EncodePlan's
// bytes) and returns its content address.
func (ps *PlanStore) Put(data []byte) (string, error) {
	if _, err := effitest.DecodePlan(data); err != nil {
		return "", fmt.Errorf("fleet: invalid plan artifact: %w", err)
	}
	sum := sha256.Sum256(data)
	id := hex.EncodeToString(sum[:])
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if _, ok := ps.blobs[id]; !ok {
		ps.blobs[id] = append([]byte(nil), data...)
	}
	return id, nil
}

// Get returns the artifact bytes for a content address.
func (ps *PlanStore) Get(id string) ([]byte, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	data, ok := ps.blobs[id]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), data...), true
}

// Decode fetches and decodes the artifact for a content address; the
// returned plan is unbound (see effitest.WithPlan).
func (ps *PlanStore) Decode(id string) (*effitest.Plan, bool, error) {
	data, ok := ps.Get(id)
	if !ok {
		return nil, false, nil
	}
	pl, err := effitest.DecodePlan(data)
	if err != nil {
		return nil, true, err
	}
	return pl, true, nil
}

// IDs lists the stored content addresses, sorted.
func (ps *PlanStore) IDs() []string {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ids := make([]string, 0, len(ps.blobs))
	for id := range ps.blobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
