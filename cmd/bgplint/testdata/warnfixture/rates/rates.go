// Warn-tier fixture: the loop runs over racks but indexes a
// midplane-keyed array, an idkind finding. It fails every run that no
// baseline suppresses it in.
package rates

import "warnfixture/bgp"

func Total(load [bgp.NumMidplanes]float64) float64 {
	var s float64
	for i := 0; i < bgp.NumRacks; i++ {
		s += load[i]
	}
	return s
}
