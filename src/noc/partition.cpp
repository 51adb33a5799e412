#include "noc/partition.hpp"

namespace noc {

SpanPartition::SpanPartition(const MeshGeometry& geom, int spans)
    : kx_(geom.kx()), ky_(geom.ky()) {
  NOC_EXPECTS(spans >= 1 && spans <= kx_);
  col_span_.resize(static_cast<size_t>(kx_));
  begin_col_.resize(static_cast<size_t>(spans) + 1);
  // Balanced split: span s owns columns [s*kx/spans, (s+1)*kx/spans).
  // Every span is non-empty (spans <= kx) and widths differ by at most one.
  for (int s = 0; s <= spans; ++s)
    begin_col_[static_cast<size_t>(s)] = s * kx_ / spans;
  for (int s = 0; s < spans; ++s)
    for (int x = begin_col_[static_cast<size_t>(s)];
         x < begin_col_[static_cast<size_t>(s) + 1]; ++x)
      col_span_[static_cast<size_t>(x)] = s;
  node_span_.resize(static_cast<size_t>(kx_) * static_cast<size_t>(ky_));
  for (size_t id = 0; id < node_span_.size(); ++id)
    node_span_[id] = col_span_[id % static_cast<size_t>(kx_)];
}

int SpanPartition::clamp_spans(const MeshGeometry& geom, int requested) {
  if (requested < 1) return 1;
  return requested < geom.kx() ? requested : geom.kx();
}

std::vector<NodeId> SpanPartition::nodes_of(int s) const {
  const auto [x0, x1] = columns_of(s);
  std::vector<NodeId> nodes;
  nodes.reserve(static_cast<size_t>(x1 - x0) * static_cast<size_t>(ky_));
  for (int y = 0; y < ky_; ++y)
    for (int x = x0; x < x1; ++x) nodes.push_back(y * kx_ + x);
  return nodes;
}

}  // namespace noc
