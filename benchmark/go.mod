// The repo benchmark is a module of its own so that it builds from its own
// file and never rides along with the runtime's `go build ./...`; it reaches
// the runtime's packages through the replace below.
module pardis/benchmark

go 1.23

require pardis v0.0.0

replace pardis => ../
