#include "layout/row_binary.h"

namespace hail {

RowBinaryBlockBuilder::RowBinaryBlockBuilder(Schema schema)
    : schema_(std::move(schema)) {}

void RowBinaryBlockBuilder::AddRow(const std::vector<Value>& values) {
  row_offsets_.push_back(rows_.size());
  for (int i = 0; i < schema_.num_fields(); ++i) {
    const Value& v = values[static_cast<size_t>(i)];
    switch (schema_.field(i).type) {
      case FieldType::kInt32:
      case FieldType::kDate:
        rows_.PutI32(v.as_int32());
        break;
      case FieldType::kInt64:
        rows_.PutI64(v.as_int64());
        break;
      case FieldType::kDouble:
        rows_.PutF64(v.as_double());
        break;
      case FieldType::kString:
        rows_.PutLengthPrefixed(v.as_string());
        break;
    }
  }
}

void RowBinaryBlockBuilder::AddRowFromColumns(
    const std::vector<ColumnVector>& columns, uint32_t row) {
  row_offsets_.push_back(rows_.size());
  for (int i = 0; i < schema_.num_fields(); ++i) {
    const ColumnVector& col = columns[static_cast<size_t>(i)];
    switch (schema_.field(i).type) {
      case FieldType::kInt32:
      case FieldType::kDate:
        rows_.PutI32(col.i32()[row]);
        break;
      case FieldType::kInt64:
        rows_.PutI64(col.i64()[row]);
        break;
      case FieldType::kDouble:
        rows_.PutF64(col.f64()[row]);
        break;
      case FieldType::kString:
        rows_.PutLengthPrefixed(col.str(row));
        break;
    }
  }
}

std::string RowBinaryBlockBuilder::Finish() {
  ByteWriter w;
  w.PutU32(kRowBinaryMagic);
  w.PutLengthPrefixed(schema_.ToString());
  w.PutU32(num_records());
  w.PutBytes(rows_.buffer());
  rows_ = ByteWriter();
  row_offsets_.clear();
  return w.Take();
}

Result<RowBinaryBlockView> RowBinaryBlockView::Open(std::string_view data) {
  RowBinaryBlockView view;
  view.data_ = data;
  ByteReader r(data);
  HAIL_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kRowBinaryMagic) {
    return Status::Corruption("not a binary-row block");
  }
  HAIL_ASSIGN_OR_RETURN(std::string_view schema_text, r.GetLengthPrefixed());
  HAIL_ASSIGN_OR_RETURN(view.schema_, Schema::Parse(schema_text));
  HAIL_ASSIGN_OR_RETURN(view.num_records_, r.GetU32());
  view.data_start_ = r.position();
  return view;
}

Result<std::vector<Value>> RowBinaryBlockView::DecodeRowAt(uint64_t* pos) const {
  ByteReader r(data_);
  HAIL_RETURN_NOT_OK(r.SeekTo(*pos));
  std::vector<Value> out;
  out.reserve(static_cast<size_t>(schema_.num_fields()));
  for (int i = 0; i < schema_.num_fields(); ++i) {
    switch (schema_.field(i).type) {
      case FieldType::kInt32:
      case FieldType::kDate: {
        HAIL_ASSIGN_OR_RETURN(int32_t v, r.GetI32());
        out.emplace_back(v);
        break;
      }
      case FieldType::kInt64: {
        HAIL_ASSIGN_OR_RETURN(int64_t v, r.GetI64());
        out.emplace_back(v);
        break;
      }
      case FieldType::kDouble: {
        HAIL_ASSIGN_OR_RETURN(double v, r.GetF64());
        out.emplace_back(v);
        break;
      }
      case FieldType::kString: {
        HAIL_ASSIGN_OR_RETURN(std::string_view s, r.GetLengthPrefixed());
        out.emplace_back(std::string(s));
        break;
      }
    }
  }
  *pos = r.position();
  return out;
}

Result<std::vector<std::vector<Value>>> RowBinaryBlockView::DecodeAll() const {
  std::vector<std::vector<Value>> rows;
  rows.reserve(num_records_);
  uint64_t pos = data_start_;
  for (uint32_t i = 0; i < num_records_; ++i) {
    HAIL_ASSIGN_OR_RETURN(std::vector<Value> row, DecodeRowAt(&pos));
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace hail
