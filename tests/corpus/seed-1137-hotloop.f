program fuzz1137
      implicit none
      integer n
      parameter (n = 8)
      integer i, j, k, t, t2, t3
      real a(n, n, n), b(n)
      real s
      do i = 1, n
        b(1) = b(7) * (a(i - 1, i + 2, i - 2) + 7.0)
      enddo
      do j = 1, n
        do k = 1, n
          b(n - k + 1) = b(k + 2) + 2.0
        enddo
      enddo
      do i = 1, n
        do j = 1, n
          do k = 1, n
            b(k - 1) = 9.0
          enddo
        enddo
      enddo
      end
