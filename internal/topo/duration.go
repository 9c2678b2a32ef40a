package topo

import (
	"encoding/json"
	"fmt"
	"time"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("200ms", "2s") and accepts both that form and raw integer nanoseconds
// on decode. The fabric Spec and every per-protocol config extension use
// it so spec files stay legible.
type Duration time.Duration

// D converts back to the standard library type.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MaxDuration is the longest duration a config or spec field may carry:
// 1000 hours of virtual time, far beyond any experiment, yet small enough
// that sums of a few such fields (a warm-up derived from several timers,
// a warm-up plus a workload) never overflow time.Duration.
const MaxDuration = Duration(1000 * time.Hour)

// InRange rejects a duration outside [0, MaxDuration], naming the config
// field it came from; zero stays legal and means "use the default". Spec
// and protocol config decoders run every duration field through it, so a
// negative or overflowing timer is a decode error instead of a panic deep
// inside a run.
func (d Duration) InRange(field string) error {
	if d < 0 {
		return fmt.Errorf("%s: negative duration %v (omit the field or use 0 for the default)", field, time.Duration(d))
	}
	if d > MaxDuration {
		return fmt.Errorf("%s: duration %v exceeds the maximum %v", field, time.Duration(d), MaxDuration)
	}
	return nil
}

// String renders like time.Duration.
func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON renders the duration as its String form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "250ms"-style strings and integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("invalid duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("duration must be a string like \"250ms\" or integer nanoseconds: %w", err)
	}
	*d = Duration(n)
	return nil
}
