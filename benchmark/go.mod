// The benchmark is a module of its own so that the repository's build and
// tier-1 tests never see it. Its import path sits under the repository
// module's, which is what lets it import repro/internal/... through the
// replace directive.
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
