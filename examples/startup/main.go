// Startup (§9.2): establish synchronization among clocks that begin with
// arbitrary values — here spread over three full seconds — using the
// READY-coordinated round structure, then watch the closeness halve each
// round down to ≈4ε.
package main

import (
	"fmt"
	"log"

	clocksync "repro"
)

func main() {
	fmt.Println("Establishing synchronization from arbitrary clocks (§9.2)")
	fmt.Println("==========================================================")
	fmt.Println()
	fmt.Println("Seven processes wake with clocks spread over 3 seconds. Local times")
	fmt.Println("cannot trigger rounds (they are arbitrarily far apart), so each round")
	fmt.Println("uses an extra READY phase: broadcast clock value → wait (1+ρ)(2δ+4ε) →")
	fmt.Println("compute adjustment → guard interval → READY; early-release on f+1")
	fmt.Println("READYs, apply the adjustment on n−f READYs.")
	fmt.Println()

	rep, err := clocksync.RunStartup(7, 2, 3.0, 20)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("closeness Bᵢ at each round's (latest) beginning vs Lemma 20:")
	prev := 0.0
	for i, b := range rep.BSeries {
		if i > 14 {
			fmt.Println("  …")
			break
		}
		marker := ""
		if i > 0 {
			bound := rep.Recurrence(prev)
			if b <= float64(bound*1.1)+1e-5 {
				marker = fmt.Sprintf("  (≤ Bᵢ₋₁/2 + 2ε + 2ρ(11δ+39ε) = %.3fms)", bound*1e3)
			} else {
				marker = "  EXCEEDS RECURRENCE"
			}
		}
		fmt.Printf("  B%-2d = %10.3fms%s\n", i, b*1e3, marker)
		prev = b
	}
	fmt.Println()
	fmt.Printf("final skew %.3fms; Lemma 20 floor %.3fms; paper headline ≈4ε = %.3fms\n",
		rep.FinalSkew*1e3, rep.Floor*1e3, rep.FourEps*1e3)
	if rep.Converged(2.0) {
		fmt.Println("converged: the start-up algorithm reached the ≈4ε regime")
	} else {
		fmt.Println("DID NOT CONVERGE")
	}
	fmt.Println()
	fmt.Println("from here a deployment would switch to the maintenance algorithm")
	fmt.Println("(examples/quickstart), which keeps the clocks within γ forever.")
}
