#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace safe {
namespace lint {

/// safe_lint — repo-specific determinism / error-discipline / concurrency
/// static analysis.
///
/// The rules encode invariants earlier PRs bought with tests:
///   SL001 nondeterminism  — raw entropy/time sources outside src/common/
///   SL002 unordered       — unordered_map/set declarations and range-for
///                           iteration in deterministic dirs
///   SL003 stable-sort     — std::stable_sort (use an explicit total order)
///   SL004 fp-atomic       — std::atomic over floating-point
///   SL005 discard         — discarded call to a Status/Result-returning
///                           function (declaration index from headers)
///   SL006 mo              — non-seq_cst std::memory_order_* use; the
///                           annotation must name the store/load it pairs
///                           with
///   SL007 bare-wait       — predicate-less condition-variable wait
///                           (single-argument wait/Wait call) outside a
///                           while/for/do loop body (lost/spurious-wakeup
///                           hazard)
///   SL008 layering        — repo include graph: an #include "src/..."
///                           may only point at the same or a lower layer
///                           of the DAG common < obs < dataframe/stats <
///                           data < core/gbdt/models/baselines < serve <
///                           serve/server; LintTree additionally rejects
///                           any file-level include cycle
///   SL009 hot-path        — a function marked with a bare `hot-path`
///                           marker comment may not allocate, take a
///                           mutex, or perform IO in its body
///
/// Escape hatch grammar (one per line; a comment-only line covers the next
/// line): `// lint: <key>-ok(<reason>)` with key in {nondeterminism,
/// unordered, stable-sort, fp-atomic, discard, mo, bare-wait, layering,
/// hot-path}. The reason is mandatory; an empty reason leaves the
/// violation in force. SL009's entry point is the bare *marker* comment
/// (`lint:` followed by the single word hot-path and nothing else), which
/// marks the next function as a hot path; `hot-path-ok(<reason>)` then
/// excuses individual lines inside it.

/// One rule violation at a file location.
struct Finding {
  std::string rule;     // "SL001".."SL009"
  std::string file;     // repo-relative path, e.g. "src/core/engine.cc"
  size_t line = 0;      // 1-based
  std::string message;  // human-readable description

  /// "file:line: [rule] message" — the CLI output format the self test
  /// asserts against.
  std::string ToString() const;
};

/// A parsed `lint: <key>-ok(<reason>)` escape annotation.
struct Annotation {
  std::string key;     // "unordered", "discard", ...
  std::string reason;  // non-empty; empty reasons are dropped at parse time
  size_t line = 0;     // line the annotation suppresses (already resolved:
                       // comment-only lines point at the next line)
};

/// A parsed bare marker comment (`lint: <key>` with nothing after the
/// key). Unlike an Annotation it asserts a property rather than excusing
/// a violation; SL009 consumes key "hot-path".
struct Marker {
  std::string key;
  size_t line = 0;  // resolved like Annotation::line
};

/// One `#include "..."` directive (quoted form only; angle includes are
/// toolchain headers and outside the layering rule's scope).
struct IncludeDirective {
  std::string target;  // the quoted path as written, e.g. "src/obs/metrics.h"
  size_t line = 0;     // 1-based line of the directive
  size_t offset = 0;   // byte offset of the '#'
};

/// A source file with comments and string/char literals blanked out
/// (newlines preserved, so offsets and line numbers survive), plus the
/// escape annotations harvested from the comments before blanking.
class SourceFile {
 public:
  static SourceFile Parse(std::string path, const std::string& content);

  const std::string& path() const { return path_; }

  /// Same length as the original content; comment/string bytes are spaces.
  const std::string& scrubbed() const { return scrubbed_; }

  /// 1-based line of a byte offset into scrubbed().
  size_t LineOf(size_t offset) const;

  /// Byte offset of the start of 1-based `line`; npos past end of file.
  size_t OffsetOfLine(size_t line) const;

  /// True when an annotation with `key` covers `line`.
  bool Allows(const std::string& key, size_t line) const;

  /// True when a bare marker with `key` resolves to `line`.
  bool HasMarker(const std::string& key, size_t line) const;

  const std::vector<Annotation>& annotations() const { return annotations_; }
  const std::vector<Marker>& markers() const { return markers_; }

  /// Quoted #include directives, in file order (harvested from the raw
  /// text: the scrubber blanks string literals, include paths among them).
  const std::vector<IncludeDirective>& includes() const { return includes_; }

 private:
  std::string path_;
  std::string scrubbed_;
  std::vector<size_t> line_starts_;  // byte offset of each line start
  std::vector<Annotation> annotations_;
  std::vector<Marker> markers_;
  std::vector<IncludeDirective> includes_;
};

/// Names of functions declared in headers with a Status or Result<...>
/// return type. Drives SL005 (discarded-status).
class DeclIndex {
 public:
  /// Scans header text for `Status name(` / `Result<...> name(`
  /// declarations (multi-line tolerant) and records the names.
  void AddHeader(const std::string& content);

  bool Contains(const std::string& name) const {
    return names_.count(name) > 0;
  }
  size_t size() const { return names_.size(); }
  const std::set<std::string>& names() const { return names_; }

 private:
  std::set<std::string> names_;
};

/// Runs every rule over one file. `repo_relative_path` selects rule scopes
/// (e.g. "src/common/" is exempt from SL001).
std::vector<Finding> AnalyzeSource(const std::string& repo_relative_path,
                                   const std::string& content,
                                   const DeclIndex& index);

/// Builds the Status/Result declaration index from every .h under
/// `root`/src (sorted walk, so the index is reproducible).
DeclIndex IndexHeaders(const std::string& root);

/// Layer rank of a directory under src/ for SL008 ("common" -> 0,
/// "serve/server" -> 6, ...); -1 when the directory is outside the layer
/// DAG (e.g. "lint", which is a standalone tool layer).
int LayerRank(const std::string& dir);

/// (repo-relative path, file content) pairs — the unit the cross-file
/// include passes run over.
using FileSet = std::vector<std::pair<std::string, std::string>>;

/// All .h/.cc files under `root`/`subdir` for each subdir, sorted by
/// path (the same walk LintTree analyzes).
FileSet CollectTreeFiles(const std::string& root,
                         const std::vector<std::string>& subdirs);

/// File-level include-cycle detection over `files` (SL008). Edges follow
/// quoted includes whose target is itself in `files`; each back edge
/// reports one finding carrying the full cycle path. Not annotatable —
/// a cycle has no single responsible line.
std::vector<Finding> CheckIncludeCycles(const FileSet& files);

/// Human-readable directory-level include graph (deterministic order):
/// one `a -> b [count]` line per edge with layer ranks, then any
/// file-level cycles. Backs `safe_lint --print-include-graph`.
std::string FormatIncludeGraph(const FileSet& files);

/// Walks `root`/`subdir` for each subdir, indexes every header under
/// `root`/src, then analyzes all .h/.cc files found (per-file rules plus
/// the cross-file include-cycle pass). Paths in findings are relative to
/// `root`. Returns findings sorted by (file, line, rule).
std::vector<Finding> LintTree(const std::string& root,
                              const std::vector<std::string>& subdirs);

}  // namespace lint
}  // namespace safe
