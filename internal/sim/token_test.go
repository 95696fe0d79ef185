package sim

import (
	"testing"

	"repro/internal/signal"
)

// recordingHandler copies the fields of every SignalToken it receives —
// the contract for handlers of arena tokens (never retain the token).
type recordingHandler struct {
	ports  []int
	values []signal.Value
}

func (*recordingHandler) HandlerName() string { return "rec" }
func (h *recordingHandler) HandleToken(_ *Context, tok Token) {
	st := tok.(*SignalToken)
	h.ports = append(h.ports, st.Port)
	h.values = append(h.values, st.Value)
}

// TestHandBuiltSignalTokenSurvivesDelivery: tokens built with a plain
// composite literal are never released — callers that retain them (tests,
// traces) must find the fields intact after the run.
func TestHandBuiltSignalTokenSurvivesDelivery(t *testing.T) {
	h := &recordingHandler{}
	s := NewScheduler()
	tok := &SignalToken{T: 5, Dst: h, Port: 3, Value: signal.BitValue{B: signal.B1}, Src: "keep"}
	s.Post(tok)
	if err := s.Run(nil, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if tok.T != 5 || tok.Port != 3 || tok.Src != "keep" || tok.Dst != Handler(h) {
		t.Errorf("hand-built token mutated after delivery: %+v", tok)
	}
}
