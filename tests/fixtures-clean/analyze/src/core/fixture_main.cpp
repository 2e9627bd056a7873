namespace demo {

int run_all(Pool& pool) {
  std::vector<int> data(4, 0);
  fill_counts(pool, data, 7);
  consume(data);
  std::unordered_map<int, long> table;
  export_totals(table);
  return reseed() + identity(9);
}

}  // namespace demo

int main() {
  demo::Pool pool;
  return demo::run_all(pool);
}
