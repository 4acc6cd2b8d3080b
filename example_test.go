package radiomis_test

import (
	"fmt"

	"radiomis"
)

// The basic workflow: generate a topology, run the energy-optimal CD
// algorithm, verify, and inspect the energy bill.
func ExampleSolve() {
	g := radiomis.Cycle(64)
	p := radiomis.DefaultParams(g.N(), g.MaxDegree())
	res, err := radiomis.Solve(g, radiomis.Spec{Algorithm: "cd", Params: p, Seed: 41})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("valid:", res.Check(g) == nil)
	fmt.Println("energy below rounds:", res.MaxEnergy() < res.Rounds)
	// Output:
	// valid: true
	// energy below rounds: true
}

// Algorithm 1 runs unchanged in the beeping model and makes identical
// decisions under identical randomness (§3.1).
func ExampleSolve_beep() {
	g := radiomis.Grid(8, 8)
	p := radiomis.DefaultParams(g.N(), g.MaxDegree())
	cd, _ := radiomis.Solve(g, radiomis.Spec{Algorithm: "cd", Params: p, Seed: 7})
	beep, _ := radiomis.Solve(g, radiomis.Spec{Algorithm: "beep", Params: p, Seed: 7})
	same := true
	for v := range cd.Status {
		if cd.Status[v] != beep.Status[v] {
			same = false
		}
	}
	fmt.Println("identical decisions:", same)
	// Output:
	// identical decisions: true
}

// The no-CD algorithm trades rounds for energy: its awake count stays far
// below its round count.
func ExampleSolve_nocd() {
	g := radiomis.GNP(64, 0.1, 3)
	p := radiomis.DefaultParams(g.N(), g.MaxDegree())
	res, err := radiomis.Solve(g, radiomis.Spec{Algorithm: "nocd", Params: p, Seed: 5})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("valid:", res.Check(g) == nil)
	fmt.Println("energy ≤ rounds/10:", res.MaxEnergy() <= res.Rounds/10)
	// Output:
	// valid: true
	// energy ≤ rounds/10: true
}

// An MIS is the foundation of a communication backbone (§1): clusterheads
// plus a few connectors form a connected dominating set with a
// collision-free broadcast schedule.
func ExampleBuildBackbone() {
	g := radiomis.Grid(10, 10)
	p := radiomis.DefaultParams(g.N(), g.MaxDegree())
	res, _ := radiomis.Solve(g, radiomis.Spec{Algorithm: "cd", Params: p, Seed: 1})
	b, err := radiomis.BuildBackbone(g, res.InMIS)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	c := radiomis.ColorBackbone(g, b)
	bc, _ := radiomis.Broadcast(g, b, c, 0, 99, 0, 2)
	fmt.Println("backbone valid:", b.Check(g) == nil)
	fmt.Println("schedule valid:", c.Check(g) == nil)
	fmt.Println("everyone informed:", bc.AllInformed())
	// Output:
	// backbone valid: true
	// schedule valid: true
	// everyone informed: true
}

// CheckMIS distinguishes the two failure modes.
func ExampleCheckMIS() {
	g := radiomis.Path(3)
	fmt.Println(radiomis.CheckMIS(g, []bool{true, false, true}))
	fmt.Println(radiomis.CheckMIS(g, []bool{true, true, false}) != nil)
	fmt.Println(radiomis.CheckMIS(g, []bool{false, false, false}) != nil)
	// Output:
	// <nil>
	// true
	// true
}
