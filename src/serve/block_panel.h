#pragma once

#include <cstddef>
#include <vector>

#include "src/common/result.h"

namespace safe {
namespace serve {

/// Column-panel layout of a row block: value of column (slot) `s` for
/// block-local row (lane) `i` lives at `panel[s * stride + i]`. The
/// batch scorer transposes each block of incoming rows into this shape
/// so every opcode — and every forest split — reads one contiguous lane
/// span instead of striding across row vectors.

/// Unchecked hot-path transpose: rows [begin, begin + n) of `rows`, each
/// of length `width`, into the first `width` slots of `panel`. The
/// caller guarantees n <= stride and uniform row width; lanes >= n of
/// each slot are left untouched (they never reach an output). Copies are
/// raw 64-bit moves, so NaN payload bits survive unchanged.
void GatherBlock(const std::vector<std::vector<double>>& rows, size_t begin,
                 size_t n, size_t width, size_t stride, double* panel);

/// Same transpose over an array of row pointers instead of owned row
/// vectors — the scoring server stages requests as pointers into caller
/// memory, so a cut is gathered without copying rows first.
/// `rows[0..n)` must each point at `width` doubles.
void GatherBlockPtrs(const double* const* rows, size_t n, size_t width,
                     size_t stride, double* panel);

/// Checked whole-batch transpose for tests and offline callers: returns
/// a width x stride panel holding all of `rows`. Rejects an empty batch,
/// zero-width rows, a ragged batch (any row width differing from the
/// first), and stride < rows.size() — a Status error in every case,
/// never UB.
[[nodiscard]] Result<std::vector<double>> RowsToPanel(
    const std::vector<std::vector<double>>& rows, size_t stride);

/// Inverse of RowsToPanel: lanes [0, num_rows) of a width x stride panel
/// back to row vectors. Same rejection rules (empty/zero sizes, stride <
/// num_rows, panel size not width * stride). Round-tripping through
/// RowsToPanel/PanelToRows is lossless to the bit, NaN payloads included
/// (serve_block_panel_test).
[[nodiscard]] Result<std::vector<std::vector<double>>> PanelToRows(
    const std::vector<double>& panel, size_t num_rows, size_t width,
    size_t stride);

}  // namespace serve
}  // namespace safe
