package mining

import "fmt"

// Validate checks the ruleset's internal consistency: a default and rule
// classes among ClassNames, conditions on attributes among AttrNames with a
// known operator, confidences in [0,1].
func (rs *Ruleset) Validate() error {
	if len(rs.ClassNames) == 0 {
		return fmt.Errorf("mining: ruleset has no classes")
	}
	if rs.Default < 0 || rs.Default >= len(rs.ClassNames) {
		return fmt.Errorf("mining: default class %d outside %d classes", rs.Default, len(rs.ClassNames))
	}
	for i, r := range rs.Rules {
		if r.Class < 0 || r.Class >= len(rs.ClassNames) {
			return fmt.Errorf("mining: rule %d class %d outside %d classes", i, r.Class, len(rs.ClassNames))
		}
		for _, c := range r.Conds {
			if c.Attr < 0 || c.Attr >= len(rs.AttrNames) {
				return fmt.Errorf("mining: rule %d references attribute %d of %d", i, c.Attr, len(rs.AttrNames))
			}
			if c.Op != OpLE && c.Op != OpGT {
				return fmt.Errorf("mining: rule %d has invalid operator %d", i, c.Op)
			}
		}
		if r.Confidence < 0 || r.Confidence > 1 {
			return fmt.Errorf("mining: rule %d confidence %g outside [0,1]", i, r.Confidence)
		}
	}
	return nil
}
