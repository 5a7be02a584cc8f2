// Package allowcheck is pvnlint testdata for suppression hygiene: a
// reasonless //lint:allow, or one naming a check no analyzer runs, must
// not suppress anything and is itself a finding (asserted
// programmatically in TestMalformedAllow, not via want comments, since
// the annotation occupies the line's comment).
package allowcheck

import "time"

func Bad() time.Time {
	return time.Now() //lint:allow nondet
}

func AboveLine() time.Time {
	//lint:allow nondet comment-above form with a reason works too
	return time.Now()
}

// Stale names the retired checks: each annotation is a finding, and
// the nondet finding below them stands.
func Stale() time.Time {
	//lint:allow goleak the goroutine is joined by its owner
	//lint:allow clockparam the ticker is stopped by its owner
	//lint:allow trustflow the record was verified by its caller
	return time.Now()
}
