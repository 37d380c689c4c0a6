program fuzz1154
      implicit none
      integer n
      parameter (n = 8)
      integer i, j, k, t, t2, t3
      real a(n), b(n), c(n, n, n)
      real s
      do k = 1, n
        c(i - 1, n - j + 1, k + 2) = b(4) * (a(k + 1) * 2.0)
      enddo
      do j = 1, n
        do k = 1, n
          b(k + 2) = b(k + 1) + 9.0
        enddo
      enddo
      do i = 1, n
        do j = 1, n
          do k = 1, n
            b(n - k + 1) = a(k - 1) * 5.0
          enddo
        enddo
      enddo
      end
