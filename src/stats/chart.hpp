// ASCII sparklines: one-line renderings of metric time-series for the
// terminal.
#pragma once

#include <string>
#include <vector>

namespace upcws::stats {

/// Render one series as a single-line density sparkline (" .:-=+*#%@"
/// ramp, min..max normalized). Series longer than `width` are resampled by
/// per-cell maximum so short spikes stay visible. Used by the telemetry
/// subsystem (docs/observability.md) to print metric time-series.
std::string sparkline(const std::vector<double>& ys, int width = 60);

}  // namespace upcws::stats
