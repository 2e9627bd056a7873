namespace demo {

int poke_everything() {
  (void)sizeof(&sum_counts);
  (void)sizeof(&run_flow);
  (void)sizeof(&export_totals);
  (void)drain(std::vector<long>{});
  return forty_two() + quiet_level() + clamp_add(1, 2);
}

}  // namespace demo

int main() { return demo::poke_everything(); }
