package norandglobal

import "math/rand"

// missingReason carries a directive without a reason: it is reported as
// malformed (rule "mctlint") and suppresses nothing, so the violation below
// still fires.
func missingReason() float64 {
	//mctlint:ignore norandglobal
	return rand.Float64() // want norandglobal
}

// misspeltRule carries a directive naming no registered rule: it is
// reported (rule "mctlint") and suppresses nothing.
func misspeltRule() float64 {
	//mctlint:ignore norandglobl draws from the global source on purpose
	return rand.Float64() // want norandglobal
}

// otherRule names a registered rule that the fixture run does not apply:
// the directive is valid, so it is not reported.
func otherRule(a, b float64) bool {
	//mctlint:ignore floateq exact comparison of two copies of one value
	return a == b
}
