#include "relational/relation.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/logging.h"

namespace xjoin {

Relation::Relation(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.size());
}

void Relation::Reserve(size_t rows) {
  for (auto& col : columns_) col.reserve(rows);
}

void Relation::AppendRow(const Tuple& row) {
  XJ_DCHECK(row.size() == columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) columns_[c].push_back(row[c]);
}

void Relation::AppendColumnBlock(const int64_t* const* columns,
                                 size_t num_rows) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    std::vector<int64_t>& col = columns_[c];
    // Grow geometrically: vector::insert is only required to fit, so an
    // unlucky sequence of block flushes could otherwise reallocate on
    // every flush.
    size_t need = col.size() + num_rows;
    if (need > col.capacity()) {
      col.reserve(std::max(need, col.capacity() * 2));
    }
    col.insert(col.end(), columns[c], columns[c] + num_rows);
  }
}

void Relation::AppendRows(const Relation& other) {
  XJ_DCHECK(schema_ == other.schema_);
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].insert(columns_[c].end(), other.columns_[c].begin(),
                       other.columns_[c].end());
  }
}

void Relation::RetainRows(const std::vector<uint8_t>& keep) {
  XJ_DCHECK(keep.size() == num_rows());
  for (std::vector<int64_t>& col : columns_) {
    size_t out = 0;
    for (size_t r = 0; r < col.size(); ++r) {
      if (keep[r] != 0) col[out++] = col[r];
    }
    col.resize(out);
  }
}

Tuple Relation::GetRow(size_t row) const {
  Tuple t(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) t[c] = columns_[c][row];
  return t;
}

Result<const std::vector<int64_t>*> Relation::ColumnByName(
    const std::string& name) const {
  int idx = schema_.IndexOf(name);
  if (idx < 0) return Status::NotFound("no attribute " + name);
  return &columns_[static_cast<size_t>(idx)];
}

void Relation::SortAndDedup() {
  const size_t n = num_rows();
  const size_t k = num_columns();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t c = 0; c < k; ++c) {
      if (columns_[c][a] != columns_[c][b])
        return columns_[c][a] < columns_[c][b];
    }
    return false;
  });
  std::vector<std::vector<int64_t>> out(k);
  for (auto& col : out) col.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    size_t r = order[i];
    if (i > 0) {
      size_t prev = order[i - 1];
      bool same = true;
      for (size_t c = 0; c < k; ++c) {
        if (columns_[c][r] != columns_[c][prev]) {
          same = false;
          break;
        }
      }
      if (same) continue;
    }
    for (size_t c = 0; c < k; ++c) out[c].push_back(columns_[c][r]);
  }
  columns_ = std::move(out);
  if (k == 0) columns_.resize(0);
}

std::vector<Tuple> Relation::ToTuples() const {
  std::vector<Tuple> out;
  out.reserve(num_rows());
  for (size_t r = 0; r < num_rows(); ++r) out.push_back(GetRow(r));
  return out;
}

Result<Relation> Relation::FromTuples(Schema schema,
                                      std::vector<Tuple> tuples) {
  Relation rel(std::move(schema));
  for (const auto& t : tuples) {
    if (t.size() != rel.num_columns()) {
      return Status::InvalidArgument("tuple arity mismatch");
    }
    rel.AppendRow(t);
  }
  return rel;
}

bool Relation::ContainsRow(const Tuple& row) const {
  if (row.size() != num_columns()) return false;
  for (size_t r = 0; r < num_rows(); ++r) {
    bool same = true;
    for (size_t c = 0; c < num_columns(); ++c) {
      if (columns_[c][r] != row[c]) {
        same = false;
        break;
      }
    }
    if (same) return true;
  }
  return false;
}

std::string Relation::ToString(size_t max_rows) const {
  std::ostringstream out;
  out << schema_.ToString("rel") << " [" << num_rows() << " rows]\n";
  for (size_t r = 0; r < std::min(max_rows, num_rows()); ++r) {
    out << "  (";
    for (size_t c = 0; c < num_columns(); ++c) {
      if (c) out << ", ";
      out << columns_[c][r];
    }
    out << ")\n";
  }
  if (num_rows() > max_rows) out << "  ...\n";
  return out.str();
}

}  // namespace xjoin
