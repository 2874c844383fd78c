#include "obs/obs.hpp"

namespace wafl::obs {

Registry& registry() {
  static Registry r;
  return r;
}

void reset_all() {
  registry().reset();
  spans().clear();
  flight_recorder().clear();
}

}  // namespace wafl::obs
