package tester

import (
	"bytes"
	"testing"
)

// validTraceJSON is a one-chip, one-session, two-step recording.
const validTraceJSON = `{"format":1,"circuit":"tc","resolution":0.0001,"chips":[{"chip":3,"sessions":[{"steps":[` +
	`{"t":0.8,"applied":0.8,"batch":[0,1],"pass":[true,false],"scan_bits":12},` +
	`{"t":0.9,"applied":0.9,"batch":[1],"pass":[true],"scan_bits":20}]}]}]}`

// FuzzReadTrace asserts the trace decoder's safety contract: arbitrary input
// either fails ReadTrace with an error, or decodes into a trace that
// NewReplayer accepts and whose every recorded step replays — with a pass
// bit for each batch path, indexed the way the flow indexes it — without a
// panic.
func FuzzReadTrace(f *testing.F) {
	// testdata/fuzz/FuzzReadTrace holds the null-chip, null-session and
	// short-pass traces that used to panic the replay.
	f.Add([]byte(validTraceJSON))
	f.Add([]byte(`{"format":2}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly: the contract holds
		}
		rp := NewReplayer(tr)
		for _, ct := range tr.Chips {
			ch := &Chip{Index: ct.Chip}
			for _, st := range ct.Sessions {
				sess, err := rp.Open(ch, tr.Resolution)
				if err != nil {
					break // a duplicated chip index exhausts the survivor's sessions
				}
				for _, rec := range st.Steps {
					_, pass, err := sess.Step(rec.T, nil, rec.Batch)
					if err != nil {
						break // a duplicated chip index replays the other entry
					}
					for i := range rec.Batch {
						_ = pass[i]
					}
				}
				sess.Counters()
			}
		}
	})
}
