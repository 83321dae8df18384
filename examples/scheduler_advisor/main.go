// Scheduler advisor: the paper's §VII argues the job scheduler should
// subscribe to failure-related information. This example turns a
// co-analysis into the two feeds the paper asks for:
//
//  1. fatal-event intelligence — which ERRCODEs actually interrupt
//     jobs, which locations are currently unreliable, which codes are
//     false alarms the scheduler can ignore;
//
//  2. job-interruption history — per-executable consecutive-failure
//     counts, so resubmissions can be steered or checkpointed.
//
//     go run ./examples/scheduler_advisor
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"repro"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/symtab"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the advisor's feeds for the quick seed-1 campaign to w.
func run(w io.Writer) error {
	rep, err := repro.Run(repro.QuickConfig(1))
	if err != nil {
		return err
	}
	a := rep.Analysis()

	// Feed 1a: event-type triage.
	fmt.Fprintln(w, "== fatal-event triage for the scheduler ==")
	type codeInfo struct {
		code  string
		id    core.Identification
		class core.Class
	}
	var infos []codeInfo
	for code, id := range a.Identification {
		infos = append(infos, codeInfo{a.Syms.Errcodes.Name(code), id, a.Classification[code].Class})
	}
	// Most events first; the code name breaks ties, so the lists do not
	// follow map order.
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].id.Events != infos[j].id.Events {
			return infos[i].id.Events > infos[j].id.Events
		}
		return infos[i].code < infos[j].code
	})
	ignorable, actionable := 0, 0
	for _, ci := range infos {
		if ci.id.Verdict == core.VerdictNonFatal {
			ignorable++
			fmt.Fprintf(w, "  IGNORE   %-34s %3d events never interrupted a running job\n", ci.code, ci.id.Events)
		}
	}
	for i, ci := range infos {
		if ci.id.Verdict == core.VerdictNonFatal || i > 8 {
			continue
		}
		actionable++
		fmt.Fprintf(w, "  WATCH    %-34s %3d events, %2d interrupting, origin=%s\n",
			ci.code, ci.id.Events, ci.id.Case1, ci.class)
	}
	fmt.Fprintf(w, "  (%d ignorable types, %d high-volume actionable types shown)\n\n", ignorable, actionable)

	// Feed 1b: unreliable locations right now.
	fmt.Fprintln(w, "== unreliable midplanes (drain candidates) ==")
	mc := a.MidplaneCharacteristics(32)
	for _, mp := range mc.TopMidplanes[:6] {
		fmt.Fprintf(w, "  %-7s %2d independent fatal events\n", bgp.MidplaneLocation(mp), mc.FatalEvents[mp])
	}
	fmt.Fprintln(w)

	// Feed 2: per-executable interruption history (Fig. 7's k).
	fmt.Fprintln(w, "== executables with consecutive-interruption history ==")
	interrupted := a.InterruptedJobIDs()
	type hist struct {
		exec   string
		streak int
	}
	var hs []hist
	all := rep.Jobs().All()
	for e := range a.Syms.Execs.Len() {
		exec := symtab.ExecID(e)
		streak, maxStreak := 0, 0
		for _, p := range a.ExecRuns(exec) {
			if interrupted[all[p].ID] {
				streak++
				if streak > maxStreak {
					maxStreak = streak
				}
			} else {
				streak = 0
			}
		}
		if maxStreak >= 2 {
			hs = append(hs, hist{a.Syms.Execs.Name(exec), maxStreak})
		}
	}
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].streak != hs[j].streak {
			return hs[i].streak > hs[j].streak
		}
		return hs[i].exec < hs[j].exec
	})
	rs := a.Resubmissions(3)
	for i, h := range hs {
		if i >= 8 {
			break
		}
		k := h.streak
		if k > 3 {
			k = 3
		}
		fmt.Fprintf(w, "  peak k=%d  %-42s next-run interruption risk ~%.0f%% (system) / ~%.0f%% (application)\n",
			h.streak, h.exec, 100*rs.System[k], 100*rs.Application[k])
	}
	fmt.Fprintf(w, "  (%d executables experienced consecutive interruptions)\n", len(hs))
	return nil
}
