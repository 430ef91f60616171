package main

import (
	"repro/internal/eval"
	"repro/internal/parser"
)

// scenarioModel is what the reference evaluation says a cold_load
// scenario must contain.
type scenarioModel struct {
	idb     int    // derived tuples of the original program
	answers int    // rows matching the scenario's query
	digest  uint64 // order-independent digest of those rows
}

// modelScenario evaluates the scenario's original, unrewritten program
// from scratch on a private copy of its EDB. dlogd loads the same text
// through the planner (plan=auto), so any rewrite that changes an
// answer shows up as a mismatch against this.
func modelScenario(sc coldScenario) (scenarioModel, error) {
	db := sc.db.Clone()
	edb := db.TotalTuples()
	eng := eval.New(sc.prog, db)
	if err := eng.Run(); err != nil {
		return scenarioModel{}, err
	}
	goal, err := parser.ParseAtom(sc.query)
	if err != nil {
		return scenarioModel{}, err
	}
	tuples, err := eng.Query(goal)
	if err != nil {
		return scenarioModel{}, err
	}
	m := scenarioModel{idb: db.TotalTuples() - edb, answers: len(tuples)}
	for _, t := range tuples {
		terms := t.Terms()
		row := make([]string, len(terms))
		for i, term := range terms {
			row[i] = term.String()
		}
		m.digest += rowHash(row)
	}
	return m, nil
}
