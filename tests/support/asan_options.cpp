// ASan runtime defaults for the test binaries: also report a thread
// touching a stack frame its owner has already returned from.  Off by
// default in ASan because it keeps frames on a side stack; the thread
// pool's completion state lives in the caller's frame, so this is the
// check that catches a worker outliving the call it served.
#if defined(__SANITIZE_ADDRESS__)
extern "C" const char* __asan_default_options() {
  return "detect_stack_use_after_return=1";
}
#endif
