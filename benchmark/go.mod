// The benchmark is a module of its own so that it builds from its own
// file and the root module's `go build ./...` never sees it. The module
// path sits under ecfd/ so the internal packages stay importable.
module ecfd/benchmark

go 1.24

require ecfd v0.0.0

replace ecfd => ../
