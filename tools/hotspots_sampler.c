/* SIGPROF sampler preloaded by tools/hotspots.sh.
 *
 * Every millisecond of process CPU time (ITIMER_PROF) the handler
 * records the interrupted PC and, on the main thread, up to 6 return
 * addresses found by walking the frame-pointer chain (x86-64). The walk
 * stays inside the main thread's stack (pthread_getattr_np at load time)
 * and stops at the first frame that does not move toward the stack base,
 * so frames built without a frame pointer (libc's) end it instead of
 * faulting. Other threads record the PC only. At exit each address is
 * written as (object, offset from the object's load base), appended to
 * HOTSPOTS_OUT:
 *
 *   R <pid>              one process
 *   O <index> <path>     an object file, before its first use
 *   S <obj>:<hex> ...    one sample, PC first; return addresses are
 *                        stored minus 1, inside their call instruction
 *
 * Build: cc -O2 -shared -fPIC -o hotspots_sampler.so hotspots_sampler.c -ldl -pthread
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define DEPTH 7 /* the PC plus 6 return addresses */
#define MAX_SAMPLES (1u << 18)
#define MAX_OBJECTS 256

static uintptr_t *g_buf; /* MAX_SAMPLES rows of DEPTH addresses, 0 = none */
static volatile size_t g_count;
static uintptr_t g_stack_lo, g_stack_hi;
static long g_main_tid;

#if !defined(__x86_64__)
#error "hotspots_sampler: x86-64 only"
#endif

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
  (void)sig;
  (void)info;
  const size_t n = g_count;
  if (n >= MAX_SAMPLES) return;
  uintptr_t *row = g_buf + n * DEPTH;
  const ucontext_t *uc = (const ucontext_t *)ctx;
  row[0] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
  uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
  if (syscall(SYS_gettid) == g_main_tid) {
    /* A frame record is {saved fp, return address} at fp. */
    for (int d = 1; d < DEPTH; ++d) {
      if ((fp & (sizeof(uintptr_t) - 1)) != 0 || fp < g_stack_lo ||
          fp > g_stack_hi - 2 * sizeof(uintptr_t)) {
        break;
      }
      const uintptr_t *rec = (const uintptr_t *)fp;
      if (rec[1] == 0) break;
      row[d] = rec[1] - 1;
      if (rec[0] <= fp) break;
      fp = rec[0];
    }
  }
  g_count = n + 1;
}

__attribute__((constructor)) static void hotspots_start(void) {
  const char *out = getenv("HOTSPOTS_OUT");
  if (out == NULL || *out == '\0') return;
  g_buf = mmap(NULL, (size_t)MAX_SAMPLES * DEPTH * sizeof(uintptr_t),
               PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (g_buf == MAP_FAILED) {
    g_buf = NULL;
    return;
  }
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void *lo = NULL;
    size_t size = 0;
    if (pthread_attr_getstack(&attr, &lo, &size) == 0) {
      g_stack_lo = (uintptr_t)lo;
      g_stack_hi = g_stack_lo + size;
    }
    pthread_attr_destroy(&attr);
  }
  g_main_tid = syscall(SYS_gettid);

  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);

  struct itimerval tv;
  tv.it_interval.tv_sec = 0;
  tv.it_interval.tv_usec = 1000;
  tv.it_value = tv.it_interval;
  setitimer(ITIMER_PROF, &tv, NULL);
}

__attribute__((destructor)) static void hotspots_finish(void) {
  if (g_buf == NULL) return;
  struct itimerval off;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  signal(SIGPROF, SIG_IGN);

  FILE *f = fopen(getenv("HOTSPOTS_OUT"), "a");
  if (f == NULL) return;
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  exe[len > 0 ? len : 0] = '\0';

  const struct link_map *objects[MAX_OBJECTS];
  int n_objects = 0;
  fprintf(f, "R %ld\n", (long)getpid());
  for (size_t i = 0; i < g_count; ++i) {
    const uintptr_t *row = g_buf + i * DEPTH;
    char line[DEPTH * 32 + 4];
    int used = snprintf(line, sizeof line, "S");
    for (int d = 0; d < DEPTH && row[d] != 0; ++d) {
      Dl_info dl;
      struct link_map *lm = NULL;
      int obj = -1;
      if (dladdr1((void *)row[d], &dl, (void **)&lm, RTLD_DL_LINKMAP) != 0 &&
          lm != NULL) {
        for (obj = 0; obj < n_objects && objects[obj] != lm; ++obj) {
        }
        if (obj == n_objects && n_objects < MAX_OBJECTS) {
          objects[n_objects++] = lm;
          fprintf(f, "O %d %s\n", obj,
                  lm->l_name[0] != '\0' ? lm->l_name : exe);
        }
        if (obj == MAX_OBJECTS) obj = -1;
      }
      if (obj < 0) {
        used += snprintf(line + used, sizeof line - used, " -:%lx",
                         (unsigned long)row[d]);
      } else {
        used += snprintf(line + used, sizeof line - used, " %d:%lx", obj,
                         (unsigned long)(row[d] - lm->l_addr));
      }
    }
    fprintf(f, "%s\n", line);
  }
  fclose(f);
}
