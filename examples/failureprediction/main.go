// Failure prediction: the paper's §VII argues predictors must name the
// *location* of the coming failure, because proactive actions on idle
// hardware are wasted (Obs. 7: nearly half of fatal events strike idle
// midplanes). This example runs the prediction study over a simulated
// campaign and prints the recall / alarm-budget / avoidable-action
// trade-off for several predictors, then zooms in on the chain
// predictor's window.
//
//	go run ./examples/failureprediction
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro"
	"repro/internal/predict"
)

func main() {
	rep, err := repro.Run(repro.QuickConfig(1))
	if err != nil {
		log.Fatal(err)
	}

	// The packaged study: baselines + chain + two rate thresholds.
	if err := rep.RenderPrediction(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	// Sweep the chain predictor's window to expose the recall/budget
	// trade-off an operator would tune.
	fmt.Println("chain-predictor window sweep:")
	fmt.Printf("  %-8s  %-8s  %-16s  %s\n", "window", "recall", "alarm mp-hours", "hits/alarm-day")
	events := rep.Analysis().Events
	idle := rep.Analysis().IdleEvents()
	for _, window := range []time.Duration{
		time.Hour, 6 * time.Hour, 24 * time.Hour, 72 * time.Hour,
	} {
		res, err := predict.Evaluate(predict.NewChainPredictor(window), events, idle)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s  %6.1f%%  %16.0f  %14.2f\n",
			window, 100*res.Recall, res.AlarmMidplaneHours, res.HitsPerAlarmDay)
	}
	fmt.Println()
	fmt.Println("reading: longer windows buy recall with a linearly growing proactive-action")
	fmt.Println("budget; the paper's point is that location information lets the budget be spent")
	fmt.Println("only where productive jobs actually run.")
}
