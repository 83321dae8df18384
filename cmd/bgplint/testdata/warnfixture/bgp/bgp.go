// Package bgp mirrors the geometry constants of the repo's
// internal/bgp: idkind recognizes them by (package name "bgp",
// constant name).
package bgp

const (
	NumRacks     = 40
	NumMidplanes = 80
)
