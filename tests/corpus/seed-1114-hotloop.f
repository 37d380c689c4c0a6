program fuzz1114
      implicit none
      integer n
      parameter (n = 8)
      integer i, j, k, t, t2, t3
      real a(n, n), b(n, n), c(n, n, n)
      real s
      do k = 1, n
        a(j - 1, n - k + 1) = b(j - 1, k + 1) + 5.0
      enddo
      do t = 1, 4
        do k = 1, n
          c(i, j + 2, k + 1) = c(i - 1, j - 2, k - 2) * 2.0
        enddo
        do i = 1, n
          do j = 1, n
            b(j - 2, 5) = 4.0
          enddo
        enddo
      enddo
      end
