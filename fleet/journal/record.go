package journal

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
)

// Record framing. Every record is one frame:
//
//	[4 bytes LE: body length n] [4 bytes LE: CRC-32C over body] [n bytes body]
//
// where body is one type byte followed by the record's JSON payload. The
// CRC covers the type byte, so a flipped type cannot re-interpret a payload
// as a different record kind. Appends are a single Write call; the kernel
// gives no atomicity guarantee for that, which is exactly why recovery
// treats any framing damage — short header, impossible length, CRC
// mismatch — as the torn tail of an interrupted append and truncates there.
const (
	frameHeader = 8
	// maxBody bounds a single record body. Campaign submit payloads are at
	// most the HTTP surface's 64 MB body cap; the margin keeps a corrupted
	// length field from turning recovery into a giant allocation.
	maxBody = 80 << 20
)

// Record types. Values are part of the on-disk format; never renumber.
const (
	recSpec   byte = 1
	recChip   byte = 2
	recSettle byte = 3
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Spec is a campaign's journal identity: enough to re-admit it after a
// crash (via the opaque Payload and a decoder owned by the submitting
// layer) and to refuse replay when the world changed under it (the
// fingerprints).
type Spec struct {
	// ID is the manager-assigned campaign identifier; it names the segment
	// file, so it must satisfy ValidateID.
	ID string `json:"id"`
	// Key is the client-chosen idempotency key, if any.
	Key string `json:"key,omitempty"`
	// Name is the campaign's free-form label.
	Name string `json:"name,omitempty"`
	// CircuitFP / ConfigFP fingerprint the circuit and the flow
	// configuration at submit time. Recovery re-fingerprints the decoded
	// spec and refuses to replay chip records against a different world —
	// replayed outcomes are only bit-identical if the inputs are.
	CircuitFP string `json:"circuit_fp,omitempty"`
	ConfigFP  string `json:"config_fp,omitempty"`
	// PlanID names the plan artifact the submit referenced, for provenance;
	// recovery may re-Prepare instead when the artifact is gone (the result
	// is deterministic either way).
	PlanID string `json:"plan_id,omitempty"`
	// ChipSeed/ChipCount/ChipFirst are the deterministic population range.
	ChipSeed  int64 `json:"chip_seed"`
	ChipCount int   `json:"chip_count"`
	ChipFirst int   `json:"chip_first,omitempty"`
	// Payload is the submitting layer's serialized spec (for effitestd, the
	// original POST /v1/campaigns body). The journal never interprets it;
	// Manager.Recover hands it back to a decoder.
	Payload []byte `json:"payload,omitempty"`
}

// Outcome is the serialized form of a deterministic chip outcome. Every
// field of core.ChipOutcome is preserved — including the full per-path
// bounds arrays and the duration sums — because Go's JSON number encoding
// round-trips float64 exactly, a replayed result must reproduce the wire
// form (bounds sums) and the campaign aggregate (duration sums) to the bit.
type Outcome struct {
	Iterations int       `json:"iterations"`
	ScanBits   int64     `json:"scan_bits"`
	AlignNS    int64     `json:"align_ns,omitempty"`
	ConfigNS   int64     `json:"config_ns,omitempty"`
	PredictNS  int64     `json:"predict_ns,omitempty"`
	BoundsLo   []float64 `json:"bounds_lo,omitempty"`
	BoundsHi   []float64 `json:"bounds_hi,omitempty"`
	X          []float64 `json:"x,omitempty"`
	Xi         float64   `json:"xi,omitempty"`
	Configured bool      `json:"configured,omitempty"`
	Passed     bool      `json:"passed,omitempty"`
}

// ChipRecord is one completed chip: either a deterministic outcome or a
// deterministic per-chip error (scheduling artifacts — cancellations,
// manager shutdown — are never journaled; re-executing those chips is the
// point of recovery).
type ChipRecord struct {
	// Index is the chip's position in the campaign population.
	Index int `json:"index"`
	// ChipIndex is the manufacturing index of the sampled chip; recovery
	// cross-checks it against the re-sampled population before replaying.
	ChipIndex int      `json:"chip_index"`
	Error     string   `json:"error,omitempty"`
	Outcome   *Outcome `json:"outcome,omitempty"`
}

// settleRecord marks a campaign terminal.
type settleRecord struct {
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// Campaign is one recovered segment: the spec, the completed chips in
// append order (duplicates dropped, first record wins), and the terminal
// state when the campaign settled before the crash ("" = unsettled, i.e.
// resumable).
type Campaign struct {
	Spec  Spec
	Chips []ChipRecord
	State string
	Err   string
}

// Settled reports whether the campaign reached a terminal state before the
// journal was reopened.
func (c Campaign) Settled() bool { return c.State != "" }

// appendFrame encodes one record onto buf.
func appendFrame(buf []byte, typ byte, payload []byte) []byte {
	n := len(payload) + 1
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	crc := crc32.Update(crc32.Checksum([]byte{typ}, crcTable), crcTable, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	buf = append(buf, hdr[:]...)
	buf = append(buf, typ)
	return append(buf, payload...)
}

func encodeRecord(typ byte, v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return appendFrame(nil, typ, payload), nil
}

// rawRecord is one CRC-verified frame.
type rawRecord struct {
	typ     byte
	payload []byte
}

// parseFrames walks data frame by frame, returning the records of the
// intact prefix and its length in bytes. The first framing violation —
// short header, zero or oversized length, body running past EOF, CRC
// mismatch — ends the walk: everything from that offset on is the torn
// tail of an interrupted append (or tampering, which recovery treats the
// same way: drop, never guess).
func parseFrames(data []byte) (recs []rawRecord, good int) {
	for {
		rec, n, ok := nextFrame(data[good:])
		if !ok {
			return recs, good
		}
		recs = append(recs, rec)
		good += n
	}
}

// nextFrame decodes the frame at the start of data and its length in
// bytes; ok is false on any framing violation parseFrames stops at.
func nextFrame(data []byte) (rec rawRecord, size int, ok bool) {
	if len(data) < frameHeader {
		return rawRecord{}, 0, false
	}
	n := int(binary.LittleEndian.Uint32(data[:4]))
	if n < 1 || n > maxBody || n > len(data)-frameHeader {
		return rawRecord{}, 0, false
	}
	body := data[frameHeader : frameHeader+n]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(data[4:8]) {
		return rawRecord{}, 0, false
	}
	return rawRecord{typ: body[0], payload: body[1:]}, frameHeader + n, true
}
