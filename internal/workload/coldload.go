package workload

import (
	"math/rand"
	"strings"

	"repro/internal/storage"
)

// LoadText is one program as a client sends it: rules, integrity
// constraints and facts in one source text, with an optional bound goal.
type LoadText struct {
	Name string
	Src  string
	Goal string
}

// ColdLoad builds the seven program texts of the cold-load cycle: the
// three worked examples, routes in three regimes (selective, vacuous,
// goal-bound) and the triangle query over 8,000 random edges on 600
// nodes. Sizes are fixed; seed drives the generators' draws.
func ColdLoad(seed int64) []LoadText {
	rng := rand.New(rand.NewSource(seed))
	text := func(name string, sc Scenario, db *storage.Database, goal string) LoadText {
		var sb strings.Builder
		sb.WriteString(sc.Program.String())
		for _, ic := range sc.ICs {
			sb.WriteString(ic.String())
			sb.WriteByte('\n')
		}
		sb.WriteString(db.String())
		return LoadText{Name: name, Src: sb.String(), Goal: goal}
	}
	routes := Routes()
	tri, _ := mustParse("tri(X, Y, Z) :- edge(X, Y), edge(Y, Z), edge(Z, X).\n")
	return []LoadText{
		text("organization", Organization(), OrgDB(rng, 2, 8, 2, 0.5), ""),
		text("academic", Academic(), AcademicDB(rng, 24, 8, 720, 6, 0.3), ""),
		text("genealogy", Genealogy(), GenealogyDB(rng, 100, 12), ""),
		text("routes_selective", routes, RoutesDB(rng, 8, 30, 8), ""),
		text("routes_vacuous", routes, RoutesDB(rng, 12, 40, 0), ""),
		text("routes_goal", routes, RoutesDB(rng, 24, 60, 0), "reach(c0_0, Y)"),
		text("triangle", Scenario{Program: tri}, RandomGraphDB(rng, 600, 8000), ""),
	}
}
