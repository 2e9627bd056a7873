#pragma once

namespace demo {

struct Queue {
  std::list<int> pending;
};

struct Policy {
  virtual int next_hop(int at) = 0;
};

inline long drain(std::vector<long> batch) {
  long total = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    auto* cell = new long(batch[i]);
    total += *cell;
    delete cell;
  }
  return total;
}

}  // namespace demo
