/* SIGPROF sampler preloaded by tools/hotspots.sh.
 *
 * It asks ITIMER_PROF for a signal every millisecond of process CPU
 * time, but the kernel delivers at its timer tick (often every 4 ms), so
 * sample counts are not milliseconds: at exit the process also writes
 * the CPU time it used, and hotspots.sh prints the measured interval.
 * On each signal the handler
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
 *   C <seconds>          the process's CPU time (user + system)
 *
 * Built with -DHOTSPOTS_MEMORY (hotspots.sh -m) it samples nothing and
 * replaces operator new and delete instead. Each allocation is charged
 * to its site: the return address into operator new's caller and, on
 * the main thread, up to 6 more from the same frame-pointer walk.
 * Whenever the live bytes pass the last snapshot by 1/256 (and at least
 * 64 KiB), every site's live bytes are copied aside, so at exit the copy
 * holds the heap within 0.4% of its peak. It writes R and O lines and
 *
 *   P <peak bytes> <snapshot bytes>   live operator-new bytes
 *   M <bytes> <blocks> <obj>:<hex> ...   a site's share of the snapshot
 *
 * Build: cc -O2 -fno-omit-frame-pointer -shared -fPIC
 *           [-DHOTSPOTS_MEMORY] -o hotspots_sampler.so hotspots_sampler.c
 *           -ldl -pthread
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
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define DEPTH 7 /* the PC plus 6 return addresses */
#define MAX_SAMPLES (1u << 18)
#define MAX_OBJECTS 256

static uintptr_t g_stack_lo, g_stack_hi;
static pthread_t g_main_thread;

#if !defined(__x86_64__)
#error "hotspots_sampler: x86-64 only"
#endif

/* Fill row[d..DEPTH) with return addresses (minus 1) from the frame
 * record at fp, on the main thread only. */
static void walk(uintptr_t fp, uintptr_t *row, int d) {
  if (!pthread_equal(pthread_self(), g_main_thread)) return;
  /* A frame record is {saved fp, return address} at fp. */
  for (; d < DEPTH; ++d) {
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

static void find_main_stack(void) {
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
  g_main_thread = pthread_self();
}

/* Output: object files are numbered in order of first use. */
static const struct link_map *g_objects[MAX_OBJECTS];
static int g_n_objects;
static char g_exe[4096];

static FILE *open_out(void) {
  FILE *f = fopen(getenv("HOTSPOTS_OUT"), "a");
  if (f == NULL) return NULL;
  const ssize_t len = readlink("/proc/self/exe", g_exe, sizeof g_exe - 1);
  g_exe[len > 0 ? len : 0] = '\0';
  fprintf(f, "R %ld\n", (long)getpid());
  return f;
}

/* Write `head`, then each address of row as <obj>:<offset>. */
static void write_row(FILE *f, const char *head, const uintptr_t *row) {
  char line[DEPTH * 32 + 64];
  int used = snprintf(line, sizeof line, "%s", head);
  for (int d = 0; d < DEPTH && row[d] != 0; ++d) {
    Dl_info dl;
    struct link_map *lm = NULL;
    int obj = -1;
    if (dladdr1((void *)row[d], &dl, (void **)&lm, RTLD_DL_LINKMAP) != 0 &&
        lm != NULL) {
      for (obj = 0; obj < g_n_objects && g_objects[obj] != lm; ++obj) {
      }
      if (obj == g_n_objects && g_n_objects < MAX_OBJECTS) {
        g_objects[g_n_objects++] = lm;
        fprintf(f, "O %d %s\n", obj,
                lm->l_name[0] != '\0' ? lm->l_name : g_exe);
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

#ifndef HOTSPOTS_MEMORY

static uintptr_t *g_buf; /* MAX_SAMPLES rows of DEPTH addresses, 0 = none */
static volatile size_t g_count;

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
  (void)sig;
  (void)info;
  const size_t n = g_count;
  if (n >= MAX_SAMPLES) return;
  uintptr_t *row = g_buf + n * DEPTH;
  const ucontext_t *uc = (const ucontext_t *)ctx;
  row[0] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
  walk((uintptr_t)uc->uc_mcontext.gregs[REG_RBP], row, 1);
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
  find_main_stack();

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

  FILE *f = open_out();
  if (f == NULL) return;
  for (size_t i = 0; i < g_count; ++i) write_row(f, "S", g_buf + i * DEPTH);
  struct timespec cpu;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu) == 0) {
    fprintf(f, "C %.6f\n", (double)cpu.tv_sec + cpu.tv_nsec * 1e-9);
  }
  fclose(f);
}

#else /* HOTSPOTS_MEMORY */

#include <stdbool.h>

#define MAX_SITES (1u << 16)
#define MAX_BLOCKS (1u << 21) /* open-addressing slots for live blocks */

struct site {
  uintptr_t row[DEPTH]; /* 0 = unused site */
  int64_t live, blocks;
  int64_t snap, snap_blocks; /* at the last snapshot */
};
struct block {
  uintptr_t p; /* 0 = empty slot */
  uint32_t site;
  size_t size;
};

static struct site *g_sites;
static struct block *g_blocks;
static uint32_t g_used[MAX_SITES]; /* indices of used sites */
static uint32_t g_n_used;
static int64_t g_live, g_peak, g_snap, g_next_snap;
static uint32_t g_n_blocks; /* live blocks tracked */
static volatile int g_lock;
static bool g_ready;

static uint64_t mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  return x;
}

static void lock(void) {
  while (__atomic_test_and_set(&g_lock, __ATOMIC_ACQUIRE)) {
  }
}
static void unlock(void) { __atomic_clear(&g_lock, __ATOMIC_RELEASE); }

static void *map(size_t bytes) {
  void *p = mmap(NULL, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  return p == MAP_FAILED ? NULL : p;
}

static bool ready(void) {
  if (!g_ready) {
    g_sites = map(sizeof(struct site) * MAX_SITES);
    g_blocks = map(sizeof(struct block) * MAX_BLOCKS);
    if (g_sites == NULL || g_blocks == NULL) return false;
    find_main_stack();
    g_next_snap = 64 * 1024;
    g_ready = true;
  }
  return true;
}

static uint32_t site_of(const uintptr_t *row) {
  uint64_t h = 0;
  for (int d = 0; d < DEPTH; ++d) h = mix(h ^ row[d]);
  for (uint32_t i = (uint32_t)h;; ++i) {
    struct site *s = &g_sites[i & (MAX_SITES - 1)];
    if (s->row[0] == 0) {
      if (g_n_used + 1 >= MAX_SITES) return 0; /* site 0 collects the rest */
      memcpy(s->row, row, sizeof s->row);
      g_used[g_n_used++] = i & (MAX_SITES - 1);
      return i & (MAX_SITES - 1);
    }
    if (memcmp(s->row, row, sizeof s->row) == 0) return i & (MAX_SITES - 1);
  }
}

static void snapshot(void) {
  for (uint32_t i = 0; i < g_n_used; ++i) {
    struct site *s = &g_sites[g_used[i]];
    s->snap = s->live;
    s->snap_blocks = s->blocks;
  }
  g_snap = g_live;
  g_next_snap = g_live + (g_live / 256 > 64 * 1024 ? g_live / 256 : 64 * 1024);
}

/* Charge block p to the site that `ret` (into operator new's caller) and
 * the caller's frame record `fp` lead to. */
static void track(void *p, size_t size, uintptr_t fp, uintptr_t ret) {
  if (p == NULL) abort(); /* a diagnostic tool: no bad_alloc from C */
  uintptr_t row[DEPTH] = {ret - 1};
  walk(fp, row, 1);
  lock();
  /* Past three quarters full, new blocks go untracked. */
  if (ready() && g_n_blocks < MAX_BLOCKS / 4 * 3) {
    const uint32_t site = site_of(row);
    uint64_t i = mix((uintptr_t)p);
    while (g_blocks[i & (MAX_BLOCKS - 1)].p != 0) ++i;
    ++g_n_blocks;
    g_blocks[i & (MAX_BLOCKS - 1)] = (struct block){(uintptr_t)p, site, size};
    g_sites[site].live += (int64_t)size;
    ++g_sites[site].blocks;
    g_live += (int64_t)size;
    if (g_live > g_peak) g_peak = g_live;
    if (g_live >= g_next_snap) snapshot();
  }
  unlock();
}

/* Forget block p: backward-shift deletion keeps probe runs whole. */
static void untrack(void *p) {
  if (p == NULL) return;
  lock();
  if (g_ready) {
    uint64_t i = mix((uintptr_t)p);
    for (; g_blocks[i & (MAX_BLOCKS - 1)].p != 0; ++i) {
      struct block *b = &g_blocks[i & (MAX_BLOCKS - 1)];
      if (b->p != (uintptr_t)p) continue;
      g_sites[b->site].live -= (int64_t)b->size;
      --g_sites[b->site].blocks;
      g_live -= (int64_t)b->size;
      --g_n_blocks;
      uint64_t hole = i;
      for (uint64_t j = i + 1; g_blocks[j & (MAX_BLOCKS - 1)].p != 0; ++j) {
        struct block *m = &g_blocks[j & (MAX_BLOCKS - 1)];
        const uint64_t mask = MAX_BLOCKS - 1, home = mix(m->p);
        if (((j - home) & mask) >= ((j - hole) & mask)) {
          g_blocks[hole & (MAX_BLOCKS - 1)] = *m;
          hole = j;
        }
      }
      g_blocks[hole & (MAX_BLOCKS - 1)].p = 0;
      break;
    }
  }
  unlock();
}

static void *aligned(size_t size, size_t align) {
  void *p = NULL;
  return posix_memalign(&p, align, size) == 0 ? p : NULL;
}

/* The caller's frame record and the return address into the caller. */
#define FP (*(const uintptr_t *)__builtin_frame_address(0))
#define RET ((uintptr_t)__builtin_return_address(0))
#define NEW(name, ...) void *name(__VA_ARGS__)
#define DELETE(name, ...) void name(__VA_ARGS__)

/* operator new / new[], plain, nothrow and aligned (Itanium names). */
NEW(_Znwm, size_t n) {
  void *p = malloc(n ? n : 1);
  track(p, n, FP, RET);
  return p;
}
NEW(_Znam, size_t n) {
  void *p = malloc(n ? n : 1);
  track(p, n, FP, RET);
  return p;
}
NEW(_ZnwmRKSt9nothrow_t, size_t n, const void *nt) {
  (void)nt;
  void *p = malloc(n ? n : 1);
  track(p, n, FP, RET);
  return p;
}
NEW(_ZnamRKSt9nothrow_t, size_t n, const void *nt) {
  (void)nt;
  void *p = malloc(n ? n : 1);
  track(p, n, FP, RET);
  return p;
}
NEW(_ZnwmSt11align_val_t, size_t n, size_t al) {
  void *p = aligned(n ? n : 1, al);
  track(p, n, FP, RET);
  return p;
}
NEW(_ZnamSt11align_val_t, size_t n, size_t al) {
  void *p = aligned(n ? n : 1, al);
  track(p, n, FP, RET);
  return p;
}

/* operator delete / delete[], plain, sized, nothrow and aligned. */
static void release(void *p) {
  untrack(p);
  free(p);
}
DELETE(_ZdlPv, void *p) { release(p); }
DELETE(_ZdaPv, void *p) { release(p); }
DELETE(_ZdlPvm, void *p, size_t n) { (void)n; release(p); }
DELETE(_ZdaPvm, void *p, size_t n) { (void)n; release(p); }
DELETE(_ZdlPvRKSt9nothrow_t, void *p, const void *nt) { (void)nt; release(p); }
DELETE(_ZdaPvRKSt9nothrow_t, void *p, const void *nt) { (void)nt; release(p); }
DELETE(_ZdlPvSt11align_val_t, void *p, size_t al) { (void)al; release(p); }
DELETE(_ZdaPvSt11align_val_t, void *p, size_t al) { (void)al; release(p); }
DELETE(_ZdlPvmSt11align_val_t, void *p, size_t n, size_t al) {
  (void)n;
  (void)al;
  release(p);
}
DELETE(_ZdaPvmSt11align_val_t, void *p, size_t n, size_t al) {
  (void)n;
  (void)al;
  release(p);
}

__attribute__((constructor)) static void hotspots_start(void) {
  lock();
  ready();
  unlock();
}

__attribute__((destructor)) static void hotspots_finish(void) {
  const char *out = getenv("HOTSPOTS_OUT");
  if (out == NULL || *out == '\0' || !g_ready) return;
  lock();
  FILE *f = open_out();
  if (f != NULL) {
    fprintf(f, "P %lld %lld\n", (long long)g_peak, (long long)g_snap);
    for (uint32_t i = 0; i < g_n_used; ++i) {
      const struct site *s = &g_sites[g_used[i]];
      if (s->snap <= 0) continue;
      char head[64];
      snprintf(head, sizeof head, "M %lld %lld", (long long)s->snap,
               (long long)s->snap_blocks);
      write_row(f, head, s->row);
    }
    fclose(f);
  }
  unlock();
}

#endif /* HOTSPOTS_MEMORY */
