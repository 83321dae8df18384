package core

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/simulate"
	"repro/internal/stats"
)

// legacyFeatures is Features as it was before the count tables: it
// builds every feature as a per-job string slice and ranks them with
// stats.RankFeatures. Kept verbatim as the oracle.
func legacyFeatures(a *Analysis, unreliableTop int) FeatureRanking {
	if unreliableTop <= 0 {
		unreliableTop = 12
	}
	var fr FeatureRanking

	mc := a.MidplaneCharacteristics(32)
	fr.UnreliableMidplanes = append([]int(nil), mc.TopMidplanes[:unreliableTop]...)
	unreliable := make(map[int]bool, unreliableTop)
	for _, mp := range fr.UnreliableMidplanes {
		unreliable[mp] = true
	}

	// Suspicious users/projects from interruption coverage.
	userCount := make(map[string]int)
	projCount := make(map[string]int)
	for _, in := range a.Interruptions {
		userCount[in.Job.User]++
		projCount[in.Job.Project]++
	}
	fr.SuspiciousUsers, fr.SuspiciousUserShare = suspiciousCover(userCount, len(a.Interruptions), 0.53)
	fr.SuspiciousProjects, fr.SuspiciousProjectShare = suspiciousCover(projCount, len(a.Interruptions), 0.74)
	suspUser := make(map[string]bool)
	for _, u := range fr.SuspiciousUsers {
		suspUser[u] = true
	}
	suspProj := make(map[string]bool)
	for _, p := range fr.SuspiciousProjects {
		suspProj[p] = true
	}

	cause, interrupted := a.jobCauses()

	// Per-user failed-job fraction (Obs. 12).
	userJobs := make(map[string]int)
	userFails := make(map[string]int)
	for _, j := range a.Jobs.All() {
		userJobs[j.User]++
		if jid, ok := a.tab.Jobs.Lookup(j.ID); ok && interrupted[jid] {
			userFails[j.User]++
		}
	}
	for u, n := range userJobs {
		if n < 100 {
			continue // tiny users make the fraction meaningless
		}
		if f := float64(userFails[u]) / float64(n); f > fr.MaxFailedJobFraction {
			fr.MaxFailedJobFraction = f
		}
	}

	// Partition sizes repeat heavily (a machine has few distinct job
	// sizes), so the "sN" feature values are interned once instead of
	// formatted per job.
	sizeName := make(map[int]string, 16)
	build := func(target Class) []stats.RankedFeature {
		features := map[string][]string{
			"user": nil, "project": nil, "exectime": nil, "size": nil, "location": nil,
		}
		jobs := a.Jobs.All()
		class := make([]string, 0, len(jobs))
		for _, j := range jobs {
			jid, found := a.tab.Jobs.Lookup(j.ID)
			hit := found && interrupted[jid]
			isTarget := hit && cause[jid] == target
			// Exclude jobs interrupted by the other cause from the
			// population, mirroring Table VI's denominator discipline.
			if hit && !isTarget {
				continue
			}
			features["user"] = append(features["user"], legacyBoolFeature(suspUser[j.User]))
			features["project"] = append(features["project"], legacyBoolFeature(suspProj[j.Project]))
			// Execution time is binarized at the paper's one-hour
			// threshold (Obs. 11) so the gain-ratio split-information
			// penalty is comparable across features.
			features["exectime"] = append(features["exectime"], legacyBoolFeature(j.Runtime() < time.Hour))
			sz := j.Size()
			name, ok := sizeName[sz]
			if !ok {
				name = "s" + strconv.Itoa(sz)
				sizeName[sz] = name
			}
			features["size"] = append(features["size"], name)
			onUnreliable := false
			for mp := j.Partition.Start; mp < j.Partition.End(); mp++ {
				if unreliable[mp] {
					onUnreliable = true
					break
				}
			}
			features["location"] = append(features["location"], legacyBoolFeature(onUnreliable))
			class = append(class, legacyBoolFeature(isTarget))
		}
		return stats.RankFeatures(features, class)
	}
	fr.System = build(ClassSystem)
	fr.Application = build(ClassApplication)
	return fr
}

func legacyBoolFeature(b bool) string {
	if b {
		return "y"
	}
	return "n"
}

// TestFeaturesMatchLegacy pins the count-table Features to the
// slice-building oracle on whole campaigns: every field, both
// categories' names, order and scores, compared exactly.
func TestFeaturesMatchLegacy(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			camp, err := simulate.Run(simulate.Config{Seed: seed, Days: 60, NoisePerFatal: 0})
			if err != nil {
				t.Fatal(err)
			}
			a, err := Analyze(DefaultConfig(), camp.RAS, camp.Jobs)
			if err != nil {
				t.Fatal(err)
			}
			got, want := a.Features(12), legacyFeatures(a, 12)
			if len(got.System) != 5 || len(got.Application) != 5 {
				t.Fatalf("ranked %d system and %d application features, want 5 each", len(got.System), len(got.Application))
			}
			for _, c := range []struct {
				name      string
				got, want []stats.RankedFeature
			}{{"system", got.System, want.System}, {"application", got.Application, want.Application}} {
				for i := range c.want {
					if c.got[i] != c.want[i] {
						t.Fatalf("%s rank %d = %+v, legacy %+v", c.name, i, c.got[i], c.want[i])
					}
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Features = %+v\nlegacy     %+v", got, want)
			}
		})
	}
}
