#include "simkern/symbol_table.hpp"

#include <array>
#include <stdexcept>

#include "util/rng.hpp"

namespace fmeter::simkern {

const char* subsystem_name(Subsystem subsystem) noexcept {
  switch (subsystem) {
    case Subsystem::kCore: return "core";
    case Subsystem::kSched: return "sched";
    case Subsystem::kMm: return "mm";
    case Subsystem::kVfs: return "vfs";
    case Subsystem::kExt3: return "ext3";
    case Subsystem::kBlock: return "block";
    case Subsystem::kNet: return "net";
    case Subsystem::kTcpIp: return "tcp_ip";
    case Subsystem::kSock: return "sock";
    case Subsystem::kIpc: return "ipc";
    case Subsystem::kIrq: return "irq";
    case Subsystem::kTimer: return "timer";
    case Subsystem::kLib: return "lib";
    case Subsystem::kSecurity: return "security";
    case Subsystem::kCrypto: return "crypto";
    case Subsystem::kDriverBase: return "driver_base";
  }
  return "unknown";
}

namespace {

struct CuratedSet {
  Subsystem subsystem;
  /// Fraction of the total symbol population this subsystem receives.
  double share;
  std::initializer_list<const char*> names;
};

// Hot-path symbols the operation models (ops.cpp) call by name. These are real
// Linux 2.6.28-era symbols so traces and signatures read like the real thing.
const std::array<CuratedSet, 16> kCurated = {{
    {Subsystem::kCore,
     0.08,
     {"do_fork", "copy_process", "dup_mm", "dup_task_struct", "wake_up_new_task",
      "do_exit", "exit_mm", "exit_files", "release_task", "do_wait",
      "sys_wait4", "do_execve", "search_binary_handler", "load_elf_binary",
      "sys_clone", "kthread_create", "do_group_exit", "get_signal_to_deliver",
      "do_signal", "handle_signal", "sys_rt_sigaction", "do_sigaction",
      "sys_rt_sigprocmask", "force_sig_info", "send_signal", "__send_signal",
      "complete_signal", "signal_wake_up", "sys_getpid", "sys_gettid",
      "sys_getuid", "find_task_by_vpid", "copy_thread", "flush_old_exec",
      "setup_new_exec", "mm_release", "put_task_struct", "free_task",
      "sys_prctl", "sys_umask", "prepare_creds", "commit_creds",
      "override_creds", "sys_capget", "proc_pid_status"}},
    {Subsystem::kSched,
     0.06,
     {"schedule", "__schedule", "pick_next_task_fair", "put_prev_task_fair",
      "enqueue_task_fair", "dequeue_task_fair", "update_curr", "update_rq_clock",
      "try_to_wake_up", "ttwu_do_activate", "activate_task", "deactivate_task",
      "scheduler_tick", "task_tick_fair", "check_preempt_wakeup",
      "resched_task", "load_balance", "find_busiest_group", "move_tasks",
      "sched_clock", "cpuacct_charge", "set_next_entity", "pick_next_entity",
      "__enqueue_entity", "__dequeue_entity", "place_entity", "sched_slice",
      "wakeup_preempt_entity", "yield_task_fair", "sys_sched_yield",
      "idle_balance", "update_cfs_shares", "account_entity_enqueue",
      "account_entity_dequeue", "finish_task_switch", "context_switch",
      "prepare_task_switch", "switch_mm", "sched_info_switch"}},
    {Subsystem::kMm,
     0.10,
     {"handle_mm_fault", "do_page_fault", "__do_fault", "handle_pte_fault",
      "do_anonymous_page", "do_wp_page", "alloc_pages_current",
      "__alloc_pages_nodemask", "get_page_from_freelist", "buffered_rmqueue",
      "free_hot_cold_page", "__free_pages", "page_remove_rmap", "page_add_new_anon_rmap",
      "anon_vma_prepare", "vma_prio_tree_add", "find_vma", "do_mmap_pgoff",
      "mmap_region", "do_munmap", "unmap_region", "sys_mmap", "sys_munmap",
      "sys_brk", "do_brk", "expand_stack", "vm_normal_page", "follow_page",
      "get_user_pages", "find_get_page", "find_lock_page", "add_to_page_cache_lru",
      "page_cache_alloc", "__page_cache_release", "mark_page_accessed",
      "activate_page", "lru_cache_add_lru", "shrink_page_list", "shrink_zone",
      "kswapd", "balance_pgdat", "zone_watermark_ok", "kmem_cache_alloc",
      "kmem_cache_free", "kmalloc", "kfree", "__kmalloc", "cache_alloc_refill",
      "slab_destroy", "vmalloc", "vfree", "get_zeroed_page", "copy_to_user",
      "copy_from_user", "clear_user", "might_fault", "flush_tlb_page",
      "flush_tlb_mm", "pte_alloc_one", "pmd_alloc_one", "pgd_alloc",
      "zap_pte_range", "unmap_vmas", "free_pgtables", "swap_duplicate"}},
    {Subsystem::kVfs,
     0.09,
     {"sys_read", "sys_write", "sys_open", "sys_close", "sys_stat", "sys_fstat",
      "sys_lstat", "sys_lseek", "sys_fcntl", "sys_dup2", "sys_ioctl",
      "vfs_read", "vfs_write", "vfs_stat", "vfs_fstat", "vfs_getattr",
      "do_sys_open", "do_filp_open", "open_namei", "path_lookup", "path_walk",
      "__link_path_walk", "do_lookup", "d_lookup", "__d_lookup", "d_alloc",
      "d_instantiate", "dput", "dget", "d_rehash", "iget_locked", "iput",
      "igrab", "generic_file_aio_read", "generic_file_aio_write",
      "do_sync_read", "do_sync_write", "generic_file_buffered_write",
      "generic_perform_write", "file_read_actor", "do_generic_file_read",
      "generic_file_llseek", "rw_verify_area", "fget", "fget_light", "fput",
      "get_unused_fd_flags", "fd_install", "filp_close", "get_empty_filp",
      "alloc_fd", "expand_files", "cp_new_stat", "generic_fillattr",
      "touch_atime", "file_update_time", "mnt_want_write", "mnt_drop_write",
      "getname", "putname", "do_select", "core_sys_select", "sys_select",
      "do_pollfd", "sys_poll", "do_sys_poll", "poll_freewait", "poll_initwait",
      "pipe_read", "pipe_write", "pipe_poll", "do_pipe_flags",
      "generic_pipe_buf_map", "anon_pipe_buf_release", "sys_pipe",
      "do_fcntl", "fcntl_setlk", "posix_lock_file", "locks_alloc_lock",
      "locks_free_lock", "__posix_lock_file", "flock_lock_file",
      "do_fsync", "vfs_fsync_range", "sys_fsync", "generic_file_open",
      "nonseekable_open", "sys_getdents", "vfs_readdir", "sys_access",
      "sys_unlink", "vfs_unlink", "sys_rename", "vfs_rename", "sys_mkdir",
      "vfs_mkdir", "notify_change", "setattr_copy", "inode_change_ok",
      "bd_claim", "blkdev_get"}},
    {Subsystem::kExt3,
     0.07,
     {"ext3_readpage", "ext3_readpages", "ext3_writepage", "ext3_write_begin",
      "ext3_write_end", "ext3_get_block", "ext3_get_blocks_handle",
      "ext3_new_blocks", "ext3_free_blocks", "ext3_lookup", "ext3_find_entry",
      "ext3_add_entry", "ext3_create", "ext3_mkdir", "ext3_unlink",
      "ext3_getattr", "ext3_setattr", "ext3_dirty_inode", "ext3_mark_inode_dirty",
      "ext3_reserve_inode_write", "ext3_journal_start_sb", "ext3_journal_stop",
      "ext3_sync_file", "ext3_release_file", "ext3_file_write",
      "journal_start", "journal_stop", "journal_get_write_access",
      "journal_dirty_metadata", "journal_dirty_data", "journal_commit_transaction",
      "kjournald", "journal_add_journal_head", "journal_put_journal_head",
      "do_get_write_access", "start_this_handle", "__log_wait_for_space",
      "journal_write_metadata_buffer", "journal_file_buffer",
      "ext3_block_to_path", "ext3_get_branch", "ext3_alloc_branch",
      "ext3_splice_branch", "ext3_find_near", "ext3_init_block_alloc_info",
      "ext3_discard_reservation", "ext3_truncate", "ext3_orphan_add",
      "ext3_orphan_del", "ext3_delete_inode"}},
    {Subsystem::kBlock,
     0.06,
     {"submit_bio", "generic_make_request", "__generic_make_request",
      "blk_queue_bio", "__make_request", "elv_queue_empty", "elv_insert",
      "elv_dispatch_sort", "elv_next_request", "elv_completed_request",
      "cfq_insert_request", "cfq_dispatch_requests", "cfq_completed_request",
      "cfq_set_request", "get_request", "get_request_wait", "blk_plug_device",
      "blk_unplug_work", "blk_run_queue", "__blk_run_queue", "blk_start_request",
      "blk_end_request", "__blk_end_request", "blk_update_request",
      "bio_alloc", "bio_alloc_bioset", "bio_put", "bio_endio", "bio_add_page",
      "submit_bh", "end_buffer_read_sync", "end_buffer_write_sync",
      "__getblk", "__find_get_block", "__bread", "mark_buffer_dirty",
      "ll_rw_block", "sync_dirty_buffer", "block_read_full_page",
      "block_write_full_page", "__block_write_begin", "alloc_buffer_head",
      "free_buffer_head", "try_to_free_buffers", "drop_buffers",
      "scsi_request_fn", "scsi_dispatch_cmd", "scsi_done", "scsi_io_completion",
      "sd_prep_fn", "sd_done", "blk_complete_request", "blk_done_softirq",
      "disk_map_sector_rcu", "part_round_stats"}},
    {Subsystem::kNet,
     0.08,
     {"netif_receive_skb", "__netif_receive_skb", "netif_rx", "net_rx_action",
      "process_backlog", "napi_gro_receive", "napi_complete", "__napi_schedule",
      "dev_queue_xmit", "dev_hard_start_xmit", "sch_direct_xmit",
      "pfifo_fast_enqueue", "pfifo_fast_dequeue", "qdisc_restart", "__qdisc_run",
      "netif_schedule_queue", "alloc_skb", "__alloc_skb", "dev_alloc_skb",
      "__netdev_alloc_skb", "kfree_skb", "__kfree_skb", "consume_skb",
      "skb_release_data", "skb_put", "skb_push", "skb_pull", "skb_copy_bits",
      "skb_clone", "pskb_expand_head", "skb_checksum", "skb_copy_datagram_iovec",
      "skb_copy_and_csum_datagram", "csum_partial", "csum_partial_copy_generic",
      "eth_type_trans", "eth_header", "neigh_resolve_output", "neigh_lookup",
      "dst_release", "dst_alloc", "rt_intern_hash", "netdev_budget_test",
      "net_tx_action", "dev_kfree_skb_irq", "skb_gro_receive",
      "napi_skb_finish", "napi_frags_finish", "skb_segment",
      "netif_napi_add", "napi_disable"}},
    {Subsystem::kTcpIp,
     0.08,
     {"tcp_v4_rcv", "tcp_v4_do_rcv", "tcp_rcv_established", "tcp_rcv_state_process",
      "tcp_data_queue", "tcp_queue_rcv", "tcp_event_data_recv", "tcp_ack",
      "tcp_clean_rtx_queue", "tcp_ack_update_rtt", "tcp_valid_rtt_meas",
      "tcp_sendmsg", "tcp_recvmsg", "tcp_push", "__tcp_push_pending_frames",
      "tcp_write_xmit", "tcp_transmit_skb", "tcp_v4_send_check",
      "tcp_established_options", "tcp_options_write", "tcp_select_window",
      "__tcp_select_window", "tcp_current_mss", "tcp_send_ack",
      "tcp_delack_timer", "tcp_send_delayed_ack", "tcp_rcv_space_adjust",
      "tcp_check_space", "tcp_new_space", "tcp_init_tso_segs", "tcp_tso_segment",
      "tcp_v4_connect", "tcp_connect", "tcp_make_synack", "tcp_v4_syn_recv_sock",
      "tcp_create_openreq_child", "inet_csk_accept", "inet_csk_wait_for_connect",
      "tcp_close", "tcp_fin", "tcp_send_fin", "tcp_time_wait",
      "ip_rcv", "ip_rcv_finish", "ip_local_deliver", "ip_local_deliver_finish",
      "ip_route_input", "ip_route_input_slow", "ip_queue_xmit", "ip_local_out",
      "ip_output", "ip_finish_output", "ip_fragment", "__ip_route_output_key",
      "ip_append_data", "inet_sendmsg", "inet_recvmsg", "tcp_prune_queue",
      "tcp_collapse", "tcp_grow_window", "tcp_should_expand_sndbuf",
      "lro_receive_skb", "lro_flush", "lro_gen_skb", "inet_lro_flush_all"}},
    {Subsystem::kSock,
     0.05,
     {"sys_socket", "sys_connect", "sys_accept", "sys_bind", "sys_listen",
      "sys_sendto", "sys_recvfrom", "sys_sendmsg", "sys_recvmsg", "sys_shutdown",
      "sock_create", "sock_alloc", "sock_release", "sock_sendmsg", "sock_recvmsg",
      "sock_aio_read", "sock_aio_write", "sock_poll", "sock_fasync",
      "sockfd_lookup_light", "sock_alloc_file", "sock_map_fd", "sock_attach_fd",
      "sk_alloc", "sk_free", "sk_clone", "sock_init_data", "sock_wfree",
      "sock_rfree", "sk_stream_wait_memory", "sk_wait_data", "sk_reset_timer",
      "release_sock", "lock_sock_nested", "__release_sock", "sock_def_readable",
      "sock_def_write_space", "sk_stream_write_space", "unix_stream_sendmsg",
      "unix_stream_recvmsg", "unix_stream_connect", "unix_accept",
      "unix_create", "unix_release_sock", "unix_write_space",
      "scm_send", "scm_recv", "move_addr_to_kernel", "move_addr_to_user"}},
    {Subsystem::kIpc,
     0.05,
     {"sys_semget", "sys_semop", "sys_semctl", "do_semtimedop", "try_atomic_semop",
      "update_queue", "sem_lock", "sem_unlock", "ipc_lock", "ipc_unlock",
      "ipcget", "ipc_addid", "sys_shmget", "sys_shmat", "do_shmat", "sys_shmdt",
      "shm_open", "shm_close", "newseg", "shm_get_stat",
      "sys_msgget", "sys_msgsnd", "sys_msgrcv", "do_msgsnd", "do_msgrcv",
      "load_msg", "store_msg", "expunge_all", "ss_wakeup",
      "futex_wait", "futex_wake", "do_futex", "sys_futex", "futex_wait_setup",
      "queue_me", "unqueue_me", "get_futex_key", "hash_futex",
      "mutex_lock_slowpath", "mutex_unlock_slowpath", "__down_read",
      "__up_read", "__down_write", "__up_write", "rwsem_wake",
      "eventpoll_release_file", "sys_epoll_wait", "sys_epoll_ctl",
      "ep_poll", "ep_send_events", "ep_insert", "ep_remove"}},
    {Subsystem::kIrq,
     0.05,
     {"do_IRQ", "handle_irq", "handle_edge_irq", "handle_fasteoi_irq",
      "handle_IRQ_event", "generic_handle_irq", "irq_enter", "irq_exit",
      "__do_softirq", "do_softirq", "raise_softirq", "raise_softirq_irqoff",
      "wakeup_softirqd", "ksoftirqd", "tasklet_action", "tasklet_schedule",
      "__tasklet_schedule", "tasklet_hi_action", "note_interrupt",
      "ack_apic_edge", "ack_apic_level", "mask_IO_APIC_irq", "unmask_IO_APIC_irq",
      "apic_timer_interrupt", "smp_apic_timer_interrupt", "irq_work_run",
      "rcu_check_callbacks", "rcu_process_callbacks", "__rcu_process_callbacks",
      "call_rcu", "rcu_do_batch", "force_quiescent_state", "rcu_start_gp",
      "synchronize_rcu", "wait_for_completion", "complete",
      "smp_call_function", "smp_call_function_single",
      "generic_smp_call_function_interrupt", "csd_lock", "csd_unlock"}},
    {Subsystem::kTimer,
     0.05,
     {"run_timer_softirq", "__run_timers", "mod_timer", "add_timer", "del_timer",
      "del_timer_sync", "internal_add_timer", "cascade", "init_timer",
      "hrtimer_interrupt", "hrtimer_start_range_ns", "hrtimer_cancel",
      "hrtimer_try_to_cancel", "__hrtimer_start_range_ns", "hrtimer_run_queues",
      "hrtimer_forward", "ktime_get", "ktime_get_ts", "ktime_get_real",
      "getnstimeofday", "do_gettimeofday", "sys_gettimeofday", "sys_clock_gettime",
      "update_wall_time", "tick_sched_timer", "tick_nohz_stop_sched_tick",
      "tick_nohz_restart_sched_tick", "tick_do_update_jiffies64",
      "do_timer", "update_process_times", "account_process_tick",
      "account_user_time", "account_system_time", "run_posix_cpu_timers",
      "sys_nanosleep", "hrtimer_nanosleep", "do_nanosleep", "schedule_timeout",
      "process_timeout", "msleep", "usleep_range", "clockevents_program_event",
      "lapic_next_event", "read_tsc", "native_sched_clock"}},
    {Subsystem::kLib,
     0.05,
     {"memcpy", "memset", "memmove", "memcmp", "strlen", "strcmp", "strncmp",
      "strcpy", "strncpy", "strcat", "strchr", "strstr", "snprintf", "vsnprintf",
      "sprintf", "sscanf", "simple_strtoul", "simple_strtol", "strict_strtoul",
      "radix_tree_lookup", "radix_tree_insert", "radix_tree_delete",
      "radix_tree_gang_lookup", "radix_tree_tag_set", "radix_tree_tag_clear",
      "radix_tree_preload", "rb_insert_color", "rb_erase", "rb_next", "rb_prev",
      "rb_first", "idr_get_new", "idr_remove", "idr_find", "idr_pre_get",
      "bitmap_scnprintf", "find_first_bit", "find_next_bit", "find_next_zero_bit",
      "hweight32", "hweight64", "crc32_le", "crc32_be", "crc16",
      "prio_tree_insert", "prio_tree_remove", "kobject_get", "kobject_put",
      "kref_get", "kref_put", "list_sort", "sort", "gcd", "int_sqrt"}},
    {Subsystem::kSecurity,
     0.04,
     {"security_file_permission", "security_inode_permission", "security_inode_getattr",
      "security_inode_setattr", "security_dentry_open", "security_file_alloc",
      "security_file_free", "security_socket_create", "security_socket_connect",
      "security_socket_accept", "security_socket_sendmsg", "security_socket_recvmsg",
      "security_sk_alloc", "security_sk_free", "security_task_create",
      "security_task_kill", "security_bprm_set_creds", "security_bprm_check",
      "security_capable", "capable", "cap_capable", "cap_task_prctl",
      "cap_bprm_set_creds", "cap_inode_permission", "selinux_file_permission",
      "selinux_inode_permission", "avc_has_perm", "avc_has_perm_noaudit",
      "avc_lookup", "avc_audit", "inode_has_perm", "file_has_perm",
      "cred_has_capability", "selinux_socket_sendmsg", "selinux_ipc_permission",
      "ipc_has_perm", "selinux_capable", "security_d_instantiate"}},
    {Subsystem::kCrypto,
     0.04,
     {"crypto_alloc_tfm", "crypto_free_tfm", "crypto_alloc_base", "crypto_create_tfm",
      "crypto_larval_lookup", "crypto_alg_mod_lookup", "crypto_mod_get",
      "crypto_mod_put", "crypto_shash_update", "crypto_shash_final",
      "crypto_shash_digest", "crypto_hash_walk_first", "crypto_hash_walk_done",
      "sha1_update", "sha1_final", "sha1_transform", "sha256_update",
      "sha256_final", "sha256_transform", "md5_update", "md5_final",
      "md5_transform", "aes_encrypt", "aes_decrypt", "aes_expandkey",
      "cbc_encrypt", "cbc_decrypt", "ecb_encrypt", "ecb_decrypt",
      "blkcipher_walk_first", "blkcipher_walk_next", "blkcipher_walk_done",
      "scatterwalk_map", "scatterwalk_done", "scatterwalk_copychunks",
      "get_random_bytes", "extract_entropy", "mix_pool_bytes",
      "secure_tcp_sequence_number", "half_md4_transform"}},
    {Subsystem::kDriverBase,
     0.05,
     {"driver_probe_device", "really_probe", "device_add", "device_del",
      "device_register", "device_unregister", "get_device", "put_device",
      "bus_add_device", "bus_probe_device", "bus_for_each_dev",
      "driver_register", "driver_unregister", "driver_attach", "device_attach",
      "sysfs_create_file", "sysfs_remove_file", "sysfs_create_group",
      "sysfs_notify", "kobject_uevent", "kobject_uevent_env", "kobject_add",
      "kobject_del", "class_dev_iter_next", "dev_get_drvdata", "dev_set_drvdata",
      "pm_runtime_get", "pm_runtime_put", "pm_request_idle",
      "dma_alloc_coherent", "dma_free_coherent", "dma_map_single",
      "dma_unmap_single", "dma_map_sg", "dma_unmap_sg", "swiotlb_map_page",
      "pci_enable_device", "pci_disable_device", "pci_set_master",
      "pci_read_config_dword", "pci_write_config_dword", "pci_find_capability",
      "request_irq", "free_irq", "enable_irq", "disable_irq",
      "ioremap_nocache", "iounmap", "mmio_flush_range"}},
}};

// Word pools for procedurally generated helper symbols (per-subsystem prefix
// plus verb/noun pools gives plausible names like "ext3_try_group_scan").
constexpr const char* kVerbs[] = {
    "get", "put", "set", "clear", "init", "free", "alloc", "release", "try",
    "do", "handle", "process", "update", "check", "find", "lookup", "insert",
    "remove", "add", "del", "start", "stop", "begin", "end", "commit", "flush",
    "sync", "wait", "wake", "queue", "dequeue", "map", "unmap", "attach",
    "detach", "enable", "disable", "prepare", "finish", "scan", "walk",
    "mark", "test", "grab", "drop", "charge", "account", "reserve", "claim"};

constexpr const char* kNouns[] = {
    "page", "entry", "node", "list", "slot", "bucket", "cache", "buffer",
    "queue", "lock", "ref", "count", "state", "flags", "bit", "mask", "range",
    "region", "group", "chunk", "block", "extent", "slab", "object", "desc",
    "ctx", "info", "data", "head", "tail", "root", "leaf", "tree", "hash",
    "table", "index", "id", "handle", "work", "task", "timer", "event",
    "request", "response", "frame", "fragment", "segment", "window", "space"};

constexpr const char* kSuffixes[] = {"",        "_locked", "_rcu",    "_atomic",
                                     "_slow",   "_fast",   "_nowait", "_irq",
                                     "_unlocked", "_one",  "_all",    "_internal"};

}  // namespace

SymbolTable::SymbolTable(const SymbolTableConfig& config) {
  if (config.total_functions == 0) {
    throw std::invalid_argument("SymbolTable: total_functions must be >= 1");
  }
  functions_.reserve(config.total_functions);

  // Curated hot-path symbols first: they get the lowest ids and the most
  // predictable addresses, mirroring how core kernel text is laid out.
  for (const auto& set : kCurated) {
    for (const char* name : set.names) {
      add_function(name, set.subsystem, /*body_cost=*/2);
    }
  }
  if (functions_.size() > config.total_functions) {
    throw std::invalid_argument(
        "SymbolTable: total_functions smaller than curated set");
  }

  // Fill the remaining population with generated helper symbols, allocating
  // each subsystem its configured share.
  util::Rng rng(config.seed);
  const std::size_t remaining = config.total_functions - functions_.size();
  std::size_t emitted = 0;
  for (std::size_t s = 0; s < kCurated.size(); ++s) {
    const auto& set = kCurated[s];
    const std::size_t quota =
        (s + 1 == kCurated.size())
            ? remaining - emitted  // last subsystem absorbs rounding
            : static_cast<std::size_t>(set.share * static_cast<double>(remaining));
    const char* prefix = subsystem_name(set.subsystem);
    for (std::size_t i = 0; i < quota; ++i) {
      std::string name;
      // A few leading underscores occur frequently in real kernels.
      if (rng.bernoulli(0.18)) name += "__";
      name += prefix;
      name += '_';
      name += kVerbs[rng.below(std::size(kVerbs))];
      name += '_';
      name += kNouns[rng.below(std::size(kNouns))];
      name += kSuffixes[rng.below(std::size(kSuffixes))];
      if (by_name_.contains(name)) {
        // Duplicate statics exist in real kernels too; disambiguate the
        // generated vocabulary with a numeric tail instead.
        name += '_';
        name += std::to_string(i);
      }
      const std::uint32_t body_cost = 1 + static_cast<std::uint32_t>(rng.below(3));
      add_function(std::move(name), set.subsystem, body_cost);
      ++emitted;
    }
  }
}

void SymbolTable::add_function(std::string name, Subsystem subsystem,
                               std::uint32_t body_cost) {
  KernelFunction fn;
  fn.id = static_cast<FunctionId>(functions_.size());
  // Functions are laid out back to back; sizes of 16..512 bytes aligned to 16.
  const Address previous =
      functions_.empty() ? kKernelTextBase : functions_.back().address;
  const Address size = 16 + (std::hash<std::string>{}(name) % 32) * 16;
  fn.address = previous + size;
  fn.name = std::move(name);
  fn.subsystem = subsystem;
  fn.body_cost = body_cost;
  by_name_.emplace(fn.name, fn.id);
  functions_.push_back(std::move(fn));
}

const KernelFunction& SymbolTable::by_name(std::string_view name) const {
  const auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) {
    throw std::out_of_range("SymbolTable: unknown symbol " + std::string(name));
  }
  return functions_[it->second];
}

bool SymbolTable::contains(std::string_view name) const noexcept {
  return by_name_.contains(std::string(name));
}

std::vector<FunctionId> SymbolTable::subsystem_members(Subsystem subsystem) const {
  std::vector<FunctionId> out;
  for (const auto& fn : functions_) {
    if (fn.subsystem == subsystem) out.push_back(fn.id);
  }
  return out;
}

}  // namespace fmeter::simkern
