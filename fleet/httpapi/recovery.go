package httpapi

import (
	"encoding/json"
	"fmt"

	"effitest/fleet"
)

// SpecDecoder returns the journal-payload decoder fleet.Manager.Recover
// needs when the journal was populated through this HTTP surface: each
// payload is the original POST /v1/campaigns body, decoded through the same
// CampaignRequest.Spec the submit handler used, so a recovered campaign is
// the campaign the client submitted.
//
// One deliberate divergence from the submit path: a plan_id that no longer
// resolves is dropped instead of failing the decode. The plan store is
// in-memory — artifacts die with the process — but a plan artifact is only
// a precomputed shortcut: the registry re-Prepares from the circuit and
// config, which is deterministic and therefore bit-identical to the
// artifact it replaces. Refusing to recover over a missing shortcut would
// strand the campaign for no correctness gain.
func SpecDecoder(plans *fleet.PlanStore) func([]byte) (fleet.CampaignSpec, error) {
	return func(payload []byte) (fleet.CampaignSpec, error) {
		var req CampaignRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return fleet.CampaignSpec{}, fmt.Errorf("decoding journaled campaign request: %w", err)
		}
		spec, err := req.Spec()
		if err != nil {
			return fleet.CampaignSpec{}, err
		}
		spec.JournalPayload = payload
		if req.PlanID != "" && plans != nil {
			if pl, ok, err := plans.Decode(req.PlanID); err == nil && ok {
				spec.Plan = pl
			}
		}
		return spec, nil
	}
}
