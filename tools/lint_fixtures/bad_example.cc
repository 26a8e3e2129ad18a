// Lint self-test fixture: every line below violates one karl_lint rule
// on purpose. This directory is excluded from normal scans and is only
// read by `karl_lint.py --self-test`, which asserts each rule fires.
// This file is never compiled.

#include <cassert>
#include <cstdio>
#include <iostream>
#include <mutex>

std::mutex raw_mutex;                       // raw-threading
std::condition_variable raw_cv;             // raw-threading

void BadLocking() {
  const std::lock_guard<std::mutex> lock(raw_mutex);  // raw-threading
}

void BadChecks(int n) {
  assert(n > 0);  // bare-assert
}

void BadIo() {
  std::cout << "hello\n";      // stdout-io (fixtures count as src/)
  printf("hello\n");           // stdout-io
  fprintf(stdout, "hello\n");  // stdout-io
}

int BadNolint() {
  int x = 0;
  x++;  // NOLINT
  return x;
}

void BadOptOut() KARL_NO_THREAD_SAFETY_ANALYSIS("");  // tsa-optout-reason

void BadJson(char* buffer, double v, char ch) {
  std::snprintf(buffer, 32, "%.17g", v);     // json-writer
  std::snprintf(buffer, 8, "\\u%04x", ch);  // json-writer
}
